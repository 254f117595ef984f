// Command presp-served is the flow-as-a-service daemon: it serves the
// PR-ESP flow engine as a multi-tenant HTTP job API with bounded
// admission, per-tenant fair scheduling, single-flight deduplication of
// identical submissions and graceful drain on SIGTERM.
//
// Usage:
//
//	presp-served -addr :8080                  # serve the job API
//	presp-served -addr :8080 -workers 4 -queue 128
//	presp-served -cache-dir /var/cache/presp  # persistent checkpoint tier: restarts warm-start
//	presp-served -state-dir /var/lib/presp    # job WAL + checkpoint tier: a kill -9'd daemon recovers its jobs on reboot
//	presp-served -job-stall-timeout 5m        # watchdog: requeue, then poison, runs with no heartbeat
//	presp-served -smoke                       # boot, run one job, drain, exit
//
// API (tenant from the X-Tenant header, default "default"):
//
//	POST   /v1/jobs        submit a flow spec; 202 job (Idempotency-Key replays 200), 429 when full, 503 circuit open
//	GET    /v1/jobs        list the tenant's jobs
//	GET    /v1/jobs/{id}   poll one job
//	DELETE /v1/jobs/{id}   cancel; 409 once the job already finished
//	GET    /v1/healthz     liveness: occupancy and drain state, 200 even while draining
//	GET    /v1/readyz      readiness: 503 while draining so load balancers stop routing
//	GET    /metrics        flat-JSON metrics registry
//	GET    /debug/pprof/   standard pprof handlers
//
// SIGINT/SIGTERM drain gracefully: queued jobs are rejected with
// "server draining", in-flight jobs finish, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"presp/internal/cliutil"
	"presp/internal/obs"
	"presp/internal/server"
	"presp/internal/vivado"
)

// cliOptions is the parsed, validated command line.
type cliOptions struct {
	addr         string
	workers      int
	queue        int
	jobWorkers   int
	cacheDir     string
	cacheMaxMB   int64
	stateDir     string
	stallTimeout time.Duration
	stallReq     int
	breakerN     int
	breakerCool  time.Duration
	drainTimeout time.Duration
	retryAfter   time.Duration
	smoke        bool
}

// parseCLI parses and validates argv (without the program name). It is
// side-effect free so tests can drive it directly.
func parseCLI(args []string) (*cliOptions, error) {
	fs := flag.NewFlagSet("presp-served", flag.ContinueOnError)
	o := &cliOptions{}
	var cu cliutil.Flags
	fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address (host:port; port 0 picks one)")
	fs.IntVar(&o.workers, "workers", 2, "concurrent flow executions")
	fs.IntVar(&o.queue, "queue", 64, "admission queue depth (submissions beyond it get 429)")
	cu.RegisterWorkers(fs, "job-workers")
	cu.RegisterCacheDir(fs, "a restarted daemon warm-starts from it")
	fs.Int64Var(&o.cacheMaxMB, "cache-max-mb", 0, "byte budget for -cache-dir in MiB, GC'd oldest-access-first (0 = unbounded)")
	fs.StringVar(&o.stateDir, "state-dir", "", "durable job state: WAL, plus the checkpoint disk tier under <dir>/cache unless -cache-dir is set; a crashed daemon recovers its jobs from here on the next boot")
	fs.DurationVar(&o.stallTimeout, "job-stall-timeout", 0, "watchdog: cancel+requeue a run with no scheduler heartbeat for this long (0 = off)")
	fs.IntVar(&o.stallReq, "stall-requeues", 1, "watchdog requeue budget before a stalled job is poisoned")
	fs.IntVar(&o.breakerN, "breaker-threshold", 0, "open the per-tenant circuit after this many consecutive failures of one spec (0 = off)")
	fs.DurationVar(&o.breakerCool, "breaker-cooldown", 30*time.Second, "how long an open circuit sheds before the half-open probe")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	fs.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429 responses")
	fs.BoolVar(&o.smoke, "smoke", false, "self-test: boot on an ephemeral port, run one job through the API, drain, exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cu.Finish(fs); err != nil {
		return nil, err
	}
	o.jobWorkers, o.cacheDir = cu.Workers, cu.CacheDir
	if o.workers <= 0 {
		return nil, fmt.Errorf("-workers must be > 0, got %d", o.workers)
	}
	if o.queue <= 0 {
		return nil, fmt.Errorf("-queue must be > 0, got %d", o.queue)
	}
	if o.drainTimeout <= 0 {
		return nil, fmt.Errorf("-drain-timeout must be > 0, got %v", o.drainTimeout)
	}
	if o.cacheMaxMB < 0 {
		return nil, fmt.Errorf("-cache-max-mb must be >= 0, got %d", o.cacheMaxMB)
	}
	if o.cacheMaxMB > 0 && o.cacheDir == "" {
		return nil, fmt.Errorf("-cache-max-mb needs -cache-dir")
	}
	if o.stallTimeout < 0 {
		return nil, fmt.Errorf("-job-stall-timeout must be >= 0, got %v", o.stallTimeout)
	}
	if o.stallReq < 0 {
		return nil, fmt.Errorf("-stall-requeues must be >= 0, got %d", o.stallReq)
	}
	if o.breakerN < 0 {
		return nil, fmt.Errorf("-breaker-threshold must be >= 0, got %d", o.breakerN)
	}
	if o.breakerCool <= 0 {
		return nil, fmt.Errorf("-breaker-cooldown must be > 0, got %v", o.breakerCool)
	}
	if o.smoke {
		o.addr = "127.0.0.1:0" // never bind a real port for the self-test
	}
	return o, nil
}

func main() {
	o, err := parseCLI(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "presp-served:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "presp-served:", err)
		os.Exit(1)
	}
}

// buildServer assembles one daemon instance: observer, the optional
// persistent checkpoint tier under -cache-dir, the job service, and —
// when -state-dir is set — WAL recovery of whatever the previous
// process left behind (Recover roots the checkpoint tier at
// <state-dir>/cache when -cache-dir is unset). Smoke mode calls it
// twice — the second instance over the same directories is the
// warm-restart check.
func buildServer(o *cliOptions, out io.Writer) (*server.Server, error) {
	observer := obs.New()
	cfg := server.Config{
		Workers:          o.workers,
		QueueDepth:       o.queue,
		JobWorkers:       o.jobWorkers,
		StateDir:         o.stateDir,
		StallTimeout:     o.stallTimeout,
		StallRequeues:    o.stallReq,
		BreakerThreshold: o.breakerN,
		BreakerCooldown:  o.breakerCool,
		RetryAfter:       o.retryAfter,
		Observer:         observer,
	}
	if o.cacheDir != "" {
		store, err := vivado.OpenDiskStore(o.cacheDir)
		if err != nil {
			return nil, err
		}
		if o.cacheMaxMB > 0 {
			store.SetMaxBytes(o.cacheMaxMB << 20)
		}
		store.SetObserver(observer)
		cache := vivado.NewCheckpointCache()
		cache.SetDiskStore(store)
		cfg.Cache = cache
	}
	srv := server.New(cfg)
	if o.stateDir != "" {
		stats, err := srv.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if stats.Jobs > 0 {
			fmt.Fprintf(out, "presp-served: recovered %d jobs from %s (%d requeued, %d already terminal)\n",
				stats.Jobs, o.stateDir, stats.Requeued, stats.Terminal)
		}
	}
	return srv, nil
}

// run boots the service and blocks until ctx is cancelled (signal) or,
// in smoke mode, until the self-test finishes.
func run(ctx context.Context, o *cliOptions, out io.Writer) error {
	srv, err := buildServer(o, out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "presp-served: listening on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), o.workers, o.queue)

	drain := func() error {
		fmt.Fprintln(out, "presp-served: draining (in-flight jobs finish, queued jobs rejected)")
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		derr := srv.Shutdown(drainCtx)
		herr := httpSrv.Shutdown(drainCtx)
		if derr != nil {
			return fmt.Errorf("drain: %w", derr)
		}
		return herr
	}

	if o.smoke {
		coldCRCs, smokeErr := smoke(fmt.Sprintf("http://%s", ln.Addr()), "smoke-1", out)
		if err := drain(); err != nil {
			return err
		}
		if smokeErr != nil {
			return fmt.Errorf("smoke: %w", smokeErr)
		}
		if o.cacheDir != "" || o.stateDir != "" {
			if err := warmRestartSmoke(o, coldCRCs, out); err != nil {
				return fmt.Errorf("smoke: warm restart: %w", err)
			}
		}
		fmt.Fprintln(out, "presp-served: smoke ok")
		return nil
	}

	select {
	case <-ctx.Done():
		return drain()
	case err := <-serveErr:
		return err
	}
}

// smoke drives one job through the real HTTP API: submit, poll to
// completion, check the metrics endpoint — the end-to-end boot check
// `make serve-smoke` runs in CI. It returns the job's bitstream CRCs
// so the warm-restart phase can assert byte-identical results. idem is
// the submission's Idempotency-Key.
func smoke(base, idem string, out io.Writer) ([]string, error) {
	client := &http.Client{Timeout: 10 * time.Second}

	submit := func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs",
			strings.NewReader(`{"preset":"SOC_3","compress":true}`))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", idem)
		return client.Do(req)
	}
	resp, err := submit()
	if err != nil {
		return nil, err
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			TotalMin      float64  `json:"total_min"`
			CacheMisses   int      `json:"cache_misses"`
			BitstreamCRCs []string `json:"bitstream_crcs"`
		} `json:"result"`
	}
	if err := decodeInto(resp, http.StatusAccepted, &job); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(out, "presp-served: smoke submitted %s\n", job.ID)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return nil, err
		}
		if err := decodeInto(resp, http.StatusOK, &job); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		if job.State != "queued" && job.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 60s", job.ID, job.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.State != "succeeded" {
		return nil, fmt.Errorf("job %s finished %s: %s", job.ID, job.State, job.Error)
	}
	if job.Result == nil || job.Result.TotalMin <= 0 {
		return nil, fmt.Errorf("job %s succeeded without a plausible result", job.ID)
	}
	fmt.Fprintf(out, "presp-served: smoke job done, modelled total %.1f min\n", job.Result.TotalMin)

	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	var metrics map[string]any
	if err := decodeInto(mresp, http.StatusOK, &metrics); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if got, ok := metrics["server_jobs_completed_total"].(float64); !ok || got < 1 {
		return nil, fmt.Errorf("metrics report %v completed jobs, want >= 1", metrics["server_jobs_completed_total"])
	}

	// Readiness reports ok while serving (it flips to 503 only during
	// drain), and replaying the Idempotency-Key hands the finished job
	// back as a 200 instead of admitting a duplicate.
	rresp, err := client.Get(base + "/v1/readyz")
	if err != nil {
		return nil, err
	}
	var ready struct {
		Status string `json:"status"`
	}
	if err := decodeInto(rresp, http.StatusOK, &ready); err != nil {
		return nil, fmt.Errorf("readyz: %w", err)
	}
	replay, err := submit()
	if err != nil {
		return nil, err
	}
	var again struct {
		ID string `json:"id"`
	}
	if err := decodeInto(replay, http.StatusOK, &again); err != nil {
		return nil, fmt.Errorf("idempotent replay: %w", err)
	}
	if again.ID != job.ID {
		return nil, fmt.Errorf("idempotent replay returned %s, want %s", again.ID, job.ID)
	}
	return job.Result.BitstreamCRCs, nil
}

// warmRestartSmoke is the persistence leg of the self-test: after the
// first daemon drained, boot a fresh one over the same -cache-dir or
// -state-dir, run the identical spec, and require that it was served
// from the disk tier (cache_disk_hits >= 1, zero synthesis misses) with
// the same bitstream CRCs the cold run produced. The spec is submitted
// under a fresh Idempotency-Key: with -state-dir the recovered WAL
// would otherwise replay the first daemon's job instead of running it.
func warmRestartSmoke(o *cliOptions, coldCRCs []string, out io.Writer) error {
	if len(coldCRCs) == 0 {
		return fmt.Errorf("cold run reported no bitstream CRCs to compare against")
	}
	srv, err := buildServer(o, out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	base := fmt.Sprintf("http://%s", ln.Addr())
	cacheDir := o.cacheDir
	if cacheDir == "" {
		cacheDir = filepath.Join(o.stateDir, "cache")
	}
	fmt.Fprintf(out, "presp-served: smoke restarting against %s (cache %s)\n", base, cacheDir)

	warmCRCs, smokeErr := smoke(base, "smoke-2", out)

	client := &http.Client{Timeout: 10 * time.Second}
	var metrics map[string]any
	var metricsErr error
	if mresp, err := client.Get(base + "/metrics"); err != nil {
		metricsErr = err
	} else {
		metricsErr = decodeInto(mresp, http.StatusOK, &metrics)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	if smokeErr != nil {
		return smokeErr
	}
	if metricsErr != nil {
		return fmt.Errorf("metrics: %w", metricsErr)
	}
	if strings.Join(warmCRCs, ",") != strings.Join(coldCRCs, ",") {
		return fmt.Errorf("bitstreams diverged across restart:\ncold %v\nwarm %v", coldCRCs, warmCRCs)
	}
	hits, _ := metrics["cache_disk_hits"].(float64)
	if hits < 1 {
		return fmt.Errorf("cache_disk_hits = %v, want >= 1 (warm start did not use the disk tier)", metrics["cache_disk_hits"])
	}
	if misses, ok := metrics["vivado_cache_misses_total"].(float64); ok && misses > 0 {
		return fmt.Errorf("warm restart paid %v synthesis misses, want 0", misses)
	}
	fmt.Fprintf(out, "presp-served: smoke warm restart ok (%d bitstream CRCs match, %d disk hits)\n",
		len(warmCRCs), int(hits))
	return nil
}

// decodeInto checks the status code and decodes the JSON body.
func decodeInto(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, body)
	}
	return json.Unmarshal(body, v)
}
