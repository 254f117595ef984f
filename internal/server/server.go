// Package server exposes the flow engine as a long-running,
// multi-tenant job service: clients submit PR-ESP / standard-DFX /
// monolithic flow runs over HTTP, poll their status, fetch results and
// cancel — all on the ctx-first flow.Run* entry points.
//
// The service layer adds what a shared deployment needs and the engine
// deliberately does not have:
//
//   - a bounded admission queue with backpressure: when the queue is
//     full, submissions are rejected with 429 and a Retry-After hint
//     instead of growing memory without limit;
//   - per-tenant fair scheduling: each tenant has its own FIFO and a
//     round-robin dispatcher picks across them, so one heavy client
//     cannot starve the rest;
//   - single-flight deduplication keyed on the checkpoint-cache content
//     address: N concurrent submissions of identical work admit one
//     flight group, run the flow once, and share the result — a failing
//     leader propagates its error to every follower;
//   - graceful drain: shutdown stops admitting, rejects
//     queued-but-unadmitted jobs with a clean "server draining" error,
//     lets in-flight runs finish (via the engine's drain-on-cancel
//     semantics) and only then returns.
//
// Everything is wired into internal/obs: server_* counters, gauges and
// histograms, per-job trace spans, and the /metrics + /debug/pprof
// endpoints mounted on the same mux. See DESIGN.md §13.
package server

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"presp/internal/flow"
	"presp/internal/obs"
	"presp/internal/report"
	"presp/internal/vivado"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent flow executions (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running flight groups across all
	// tenants (default 64). Beyond it, submissions get 429.
	QueueDepth int
	// JobWorkers is the per-run flow scheduler pool width passed to
	// flow.Options.Workers (0 = GOMAXPROCS).
	JobWorkers int
	// Cache is the shared synthesis-checkpoint cache (nil = a fresh
	// one). Sharing it across jobs is what makes warm submissions cheap
	// and is the second half of the dedup story: even non-identical
	// jobs reuse each other's synthesis checkpoints.
	Cache *vivado.CheckpointCache
	// StageCache is the shared stage-artifact cache backing incremental
	// re-flow: floorplan solutions, per-partition implementation runs and
	// bitstream images are content-addressed, so resubmitting an edited
	// spec re-runs only the stages whose inputs changed and ResultView
	// reports the reuse. Nil creates a fresh one unless NoStageCache is
	// set. Every flow run shares Cache's disk tier with it (see
	// flow.Options.StageCache).
	StageCache *vivado.StageCache
	// NoStageCache disables stage-artifact caching entirely: every
	// submission runs every stage cold, as before incremental re-flow.
	NoStageCache bool
	// Observer records server_* metrics and per-job trace spans, and
	// backs the /metrics endpoint (nil = no observation).
	Observer *obs.Observer
	// StateDir, when set, makes accepted jobs crash-durable: every job
	// state transition is appended to <dir>/jobs.wal (CRC-trailered,
	// fsynced) before it is acknowledged, and Recover replays the log
	// on boot, re-enqueueing every job that had not finished. Unless
	// Cache already has a disk tier, Recover also attaches one at
	// <dir>/cache, so an interrupted run reuses the synthesis it
	// finished. Recover must be called once before the server takes
	// traffic; until then nothing is logged. One server owns a state
	// directory at a time: Recover locks <dir>/LOCK until Shutdown.
	StateDir string
	// StallTimeout arms the stuck-job watchdog: a running flight that
	// makes no scheduler progress (virtual-time heartbeats) for longer
	// than this wall-clock span is cancelled and requeued, and after
	// StallRequeues requeues it is quarantined as poisoned. 0 disables
	// the watchdog.
	StallTimeout time.Duration
	// StallRequeues caps how many times a stalled flight is requeued
	// before being poisoned (default 1).
	StallRequeues int
	// BreakerThreshold opens a per-(tenant, spec) circuit breaker after
	// this many consecutive failures of the same spec: further
	// submissions are shed with 503 + Retry-After until BreakerCooldown
	// passes, then one probe is let through (half-open). 0 disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit sheds submissions
	// (default 30s).
	BreakerCooldown time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Now overrides the clock (tests pin it for golden files).
	Now func() time.Time
}

// group is one single-flight execution: every job whose spec key
// matches an in-flight group subscribes to it instead of running again.
// The group owns the run's context; it is cancelled only when the last
// subscriber goes away.
type group struct {
	key      string
	tenant   string // admitting tenant, used for fair scheduling
	cs       *compiledSpec
	jobs     []*Job // live subscribers
	ctx      context.Context
	cancel   context.CancelFunc
	running  bool
	started  time.Time
	enqueued time.Time

	// lastBeat is the wall time of the last scheduler progress
	// heartbeat; the watchdog declares a stall when it falls more than
	// StallTimeout behind.
	lastBeat time.Time
	// stalled marks a run the watchdog cancelled; requeues counts how
	// often this flight was put back on the queue.
	stalled  bool
	requeues int
}

// breakerState tracks one (tenant, spec key)'s consecutive failures.
type breakerState struct {
	fails     int
	openUntil time.Time
}

// tenantKey scopes a name (spec content address, idempotency key) per
// tenant; used for both breaker state and idempotency lookups.
func tenantKey(tenant, name string) string { return tenant + "\x00" + name }

// Server is the flow service. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg   Config
	now   func() time.Time
	cache *vivado.CheckpointCache
	stage *vivado.StageCache // nil when Config.NoStageCache

	// runFlow is the execution seam; tests substitute it to control
	// run timing without touching the scheduling machinery.
	runFlow func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error)

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	flights  map[string]*group   // queued + running groups by spec key
	queues   map[string][]*group // per-tenant admission FIFOs
	rr       []string            // round-robin ring of tenants with queued work
	queued   int                 // total queued groups
	running  int                 // groups currently executing
	draining bool
	seq      int
	wg       sync.WaitGroup

	// wal is the job write-ahead log, non-nil once Recover has opened
	// it (StateDir set); lock holds the state directory's owner lock
	// for as long. idem maps tenant-scoped idempotency keys to job IDs;
	// breakers holds per-(tenant, spec) failure circuits.
	wal          *wal
	lock         *os.File
	recovered    bool
	idem         map[string]string
	breakers     map[string]*breakerState
	watchdogQuit chan struct{}

	// Instruments, resolved once; nil-safe when no Observer is set.
	mSubmitted    *obs.Counter
	mDeduped      *obs.Counter
	mCompleted    *obs.Counter
	mFailed       *obs.Counter
	mCancelled    *obs.Counter
	mRejected     *obs.Counter // queued jobs rejected by drain
	mQueueRejects *obs.Counter // 429s
	mDrainRejects *obs.Counter // 503s
	gQueueDepth   *obs.Gauge
	gRunning      *obs.Gauge
	hQueueSec     *obs.Histogram
	hRunSec       *obs.Histogram

	mWALRecords  *obs.Counter
	mWALErrors   *obs.Counter
	mRecovered   *obs.Counter // jobs re-created from the WAL at boot
	mStalls      *obs.Counter // watchdog stall detections
	mPoisoned    *obs.Counter // jobs quarantined past the requeue budget
	mBreakerOpen *obs.Counter // circuit transitions to open
	mBreakerShed *obs.Counter // submissions shed by an open circuit
	mIdemReplays *obs.Counter // Idempotency-Key hits returning prior jobs
}

// serverTIDBase is the trace lane block for server worker slots, kept
// clear of the flow scheduler's worker lanes.
const serverTIDBase = 1 << 21

// New builds and starts a server: worker goroutines spin up immediately
// and wait for submissions. Callers must Shutdown to stop them.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.StallRequeues <= 0 {
		cfg.StallRequeues = 1
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	s := &Server{
		cfg:      cfg,
		now:      cfg.Now,
		cache:    cfg.Cache,
		stage:    cfg.StageCache,
		jobs:     make(map[string]*Job),
		flights:  make(map[string]*group),
		queues:   make(map[string][]*group),
		idem:     make(map[string]string),
		breakers: make(map[string]*breakerState),
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.cache == nil {
		s.cache = vivado.NewCheckpointCache()
	}
	if cfg.NoStageCache {
		s.stage = nil
	} else if s.stage == nil {
		s.stage = vivado.NewStageCache()
	}
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		return flow.RunFlow(ctx, cs.spec.Flow, cs.design, opt)
	}
	s.cond = sync.NewCond(&s.mu)

	reg := cfg.Observer.Metrics()
	s.mSubmitted = reg.Counter("server_jobs_submitted_total")
	s.mDeduped = reg.Counter("server_dedup_hits_total")
	s.mCompleted = reg.Counter("server_jobs_completed_total")
	s.mFailed = reg.Counter("server_jobs_failed_total")
	s.mCancelled = reg.Counter("server_jobs_cancelled_total")
	s.mRejected = reg.Counter("server_jobs_drain_rejected_total")
	s.mQueueRejects = reg.Counter("server_admission_rejects_total")
	s.mDrainRejects = reg.Counter("server_drain_rejects_total")
	s.mWALRecords = reg.Counter("server_wal_records_total")
	s.mWALErrors = reg.Counter("server_wal_errors_total")
	s.mRecovered = reg.Counter("server_recovered_jobs")
	s.mStalls = reg.Counter("server_watchdog_stalls_total")
	s.mPoisoned = reg.Counter("server_jobs_poisoned")
	s.mBreakerOpen = reg.Counter("server_breaker_opens_total")
	s.mBreakerShed = reg.Counter("server_breaker_sheds_total")
	s.mIdemReplays = reg.Counter("server_idempotent_replays_total")
	s.gQueueDepth = reg.Gauge("server_queue_depth")
	s.gRunning = reg.Gauge("server_jobs_running")
	s.hQueueSec = reg.Histogram("server_job_queue_seconds")
	s.hRunSec = reg.Histogram("server_job_run_seconds")
	if tr := cfg.Observer.Tracer(); tr != nil {
		lanes := s.flightLanes()
		for i := 0; i < cfg.Workers; i++ {
			tr.SetThreadName(serverTIDBase+i, fmt.Sprintf("server-worker-%d", i))
			for w := 0; w < lanes; w++ {
				tr.SetThreadName(i*lanes+w, fmt.Sprintf("slot-%d/worker-%d", i, w))
			}
		}
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	if cfg.StallTimeout > 0 {
		s.watchdogQuit = make(chan struct{})
		s.wg.Add(1)
		go s.watchdog(s.watchdogQuit)
	}
	return s
}

// Submit validates and admits one job for tenant. It returns the
// created job, or ErrDraining, a *QueueFullError or a *BadSpecError.
func (s *Server) Submit(tenant string, spec Spec) (JobView, error) {
	v, _, err := s.SubmitIdempotent(tenant, "", spec)
	return v, err
}

// SubmitIdempotent is Submit with an optional client idempotency key.
// A key the tenant has used before returns that submission's job —
// terminal or live — with replayed=true instead of admitting new work;
// this is how a client that crashed (or whose server crashed) resubmits
// safely after recovery. Reusing a key with a different spec is an
// *IdempotencyMismatchError. An open circuit for (tenant, spec) sheds
// the submission with a *CircuitOpenError.
func (s *Server) SubmitIdempotent(tenant, idemKey string, spec Spec) (JobView, bool, error) {
	cs, err := compile(spec)
	if err != nil {
		return JobView{}, false, &BadSpecError{Reason: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if idemKey != "" {
		if id, ok := s.idem[tenantKey(tenant, idemKey)]; ok {
			j := s.jobs[id]
			if j.Key != cs.key {
				return JobView{}, false, &IdempotencyMismatchError{Key: idemKey, JobID: id}
			}
			s.mIdemReplays.Inc()
			return j.viewLocked(), true, nil
		}
	}
	if s.draining {
		s.mDrainRejects.Inc()
		return JobView{}, false, ErrDraining
	}
	// Single-flight: identical work joins the in-flight group — queued
	// or running — instead of consuming a queue slot.
	if g, ok := s.flights[cs.key]; ok {
		j := s.newJobLocked(tenant, cs, idemKey, true)
		j.group = g
		g.jobs = append(g.jobs, j)
		if err := s.admitDurablyLocked(j); err != nil {
			g.jobs = g.jobs[:len(g.jobs)-1]
			return JobView{}, false, err
		}
		if g.running {
			// The worker logged started only for the jobs it dispatched;
			// a follower of a running flight shares that run, so a crash
			// interrupts it too and recovery must count the attempt.
			s.transitionLocked(walRecord{Op: walStarted, Job: j.ID}, g.started)
		}
		s.mDeduped.Inc()
		return j.viewLocked(), false, nil
	}
	if s.cfg.BreakerThreshold > 0 {
		if b := s.breakers[tenantKey(tenant, cs.key)]; b != nil && b.fails >= s.cfg.BreakerThreshold {
			if now := s.now(); now.Before(b.openUntil) {
				s.mBreakerShed.Inc()
				return JobView{}, false, &CircuitOpenError{Failures: b.fails, RetryAfter: b.openUntil.Sub(now)}
			}
			// Cooldown elapsed: half-open, let this probe through. The
			// breaker reopens on its failure and resets on success.
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mQueueRejects.Inc()
		return JobView{}, false, &QueueFullError{Depth: s.cfg.QueueDepth}
	}
	j := s.newJobLocked(tenant, cs, idemKey, false)
	g := s.newGroupLocked(cs, j)
	s.enqueueLocked(g)
	if err := s.admitDurablyLocked(j); err != nil {
		s.removeQueuedLocked(g)
		g.cancel()
		return JobView{}, false, err
	}
	s.cond.Signal()
	return j.viewLocked(), false, nil
}

// admitDurablyLocked makes j's admission crash-durable and registers
// its idempotency key. The admitted record is the one WAL append that
// gates the acknowledgement: if it cannot be made durable, the caller
// rolls the job back and the submission fails — the client never holds
// a 202 for a job a crash could lose. Callers hold s.mu and must
// unlink j on error.
func (s *Server) admitDurablyLocked(j *Job) error {
	if s.wal != nil {
		rec := walRecord{
			Op: walAdmitted, Job: j.ID, Tenant: j.Tenant, Key: j.Key,
			Idem: j.IdemKey, Spec: &j.Spec, Time: j.Submitted.UTC().Format(time.RFC3339Nano),
			Dedup: j.Dedup,
		}
		if err := s.wal.append(rec); err != nil {
			s.mWALErrors.Inc()
			delete(s.jobs, j.ID)
			return fmt.Errorf("server: job not durable: %w", err)
		}
		s.mWALRecords.Inc()
	}
	if j.IdemKey != "" {
		s.idem[tenantKey(j.Tenant, j.IdemKey)] = j.ID
	}
	return nil
}

// transitionLocked is the one way a live job changes state after
// admission: it applies r through applyLocked, the state machine
// Recover replays the log with, and logs it best-effort. It reports
// false, logging nothing, for an unknown or already finished job. A
// failing append is counted but does not fail the job — the transition
// already happened in memory, and replay treats a missing tail record
// conservatively (a re-run, never a loss). Callers hold s.mu.
func (s *Server) transitionLocked(r walRecord, at time.Time) bool {
	if !s.applyLocked(r, at) {
		return false
	}
	if s.wal != nil {
		if err := s.wal.append(r); err != nil {
			s.mWALErrors.Inc()
		} else {
			s.mWALRecords.Inc()
		}
	}
	return true
}

// applyLocked is the job state machine: it applies one logged
// transition to its job, live through transitionLocked and at boot in
// Recover's replay, and reports whether it did. Records for an unknown
// or already finished job are ignored, so an outcome is never
// overwritten. at is when the transition happened. A start is stamped
// only on a job in a flight, whose start it shares: a replayed start
// has no flight yet, since the attempt it logged is rerun. A finished
// job drops its flight, which holds the compiled spec and its
// elaborated design. Callers hold s.mu.
func (s *Server) applyLocked(r walRecord, at time.Time) bool {
	j := s.jobs[r.Job]
	if j == nil || j.State.terminal() {
		return false
	}
	switch r.Op {
	case walStarted:
		j.State = StateRunning
		if j.group != nil {
			j.Started = at
		}
		return true
	case walRequeued:
		j.State = StateQueued
		j.Attempts++
		return true
	case walDone:
		j.State = r.State
		if !j.State.terminal() {
			j.State = StateFailed
		}
		j.Err, j.Result = r.Error, r.Result
	case walCancelled:
		j.State = StateCancelled
	case walPoisoned:
		j.State = StatePoisoned
		j.Err = r.Error
	default:
		return false
	}
	j.Finished = at
	j.group = nil
	return true
}

// newJobLocked allocates a job record. Callers hold s.mu.
func (s *Server) newJobLocked(tenant string, cs *compiledSpec, idemKey string, dedup bool) *Job {
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Tenant:    tenant,
		Spec:      cs.spec,
		Key:       cs.key,
		IdemKey:   idemKey,
		State:     StateQueued,
		Dedup:     dedup,
		Submitted: s.now(),
	}
	s.jobs[j.ID] = j
	s.mSubmitted.Inc()
	s.cfg.Observer.Metrics().Counter("server_tenant_jobs_total." + tenant).Inc()
	return j
}

// enqueueLocked appends g to its tenant FIFO and registers the tenant
// in the round-robin ring. Callers hold s.mu.
func (s *Server) enqueueLocked(g *group) {
	if len(s.queues[g.tenant]) == 0 {
		s.rr = append(s.rr, g.tenant)
	}
	s.queues[g.tenant] = append(s.queues[g.tenant], g)
	s.queued++
	s.gQueueDepth.Set(float64(s.queued))
}

// dequeueLocked pops the next group in tenant round-robin order.
// Callers hold s.mu and have checked s.queued > 0.
func (s *Server) dequeueLocked() *group {
	tenant := s.rr[0]
	s.rr = s.rr[1:]
	q := s.queues[tenant]
	g := q[0]
	q = q[1:]
	if len(q) > 0 {
		s.queues[tenant] = q
		s.rr = append(s.rr, tenant) // rotate: next tenant gets the next slot
	} else {
		delete(s.queues, tenant)
	}
	s.queued--
	s.gQueueDepth.Set(float64(s.queued))
	return g
}

// removeQueuedLocked unlinks a queued group (last subscriber
// cancelled). Callers hold s.mu.
func (s *Server) removeQueuedLocked(g *group) {
	q := s.queues[g.tenant]
	for i, qg := range q {
		if qg == g {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) > 0 {
		s.queues[g.tenant] = q
	} else {
		delete(s.queues, g.tenant)
		for i, t := range s.rr {
			if t == g.tenant {
				s.rr = append(s.rr[:i:i], s.rr[i+1:]...)
				break
			}
		}
	}
	delete(s.flights, g.key)
	s.queued--
	s.gQueueDepth.Set(float64(s.queued))
}

// worker is one execution slot: it pulls flight groups off the tenant
// queues in round-robin order and runs them until the server drains.
func (s *Server) worker(slot int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 {
			s.mu.Unlock()
			return // draining and nothing left to admit
		}
		g := s.dequeueLocked()
		g.running = true
		g.started = s.now()
		g.lastBeat = g.started
		for _, j := range g.jobs {
			s.transitionLocked(walRecord{Op: walStarted, Job: j.ID}, g.started)
		}
		s.running++
		s.gRunning.Set(float64(s.running))
		s.hQueueSec.Observe(g.started.Sub(g.enqueued).Seconds())
		s.mu.Unlock()
		s.execute(slot, g)
	}
}

// execute runs one flight group to completion and publishes the
// outcome to every surviving subscriber. A run the watchdog stalled is
// requeued (within its budget) instead of published; past the budget
// its jobs are quarantined as poisoned.
func (s *Server) execute(slot int, g *group) {
	opt := flow.Options{
		Strategy:       g.cs.strategy,
		SemiTau:        g.cs.spec.Tau,
		Compress:       g.cs.spec.Compress,
		SkipBitstreams: g.cs.spec.SkipBitstreams,
		Workers:        s.cfg.JobWorkers,
		Cache:          s.cache,
		StageCache:     s.stage,
		MaxJobRetries:  g.cs.spec.Retries,
		FaultPlan:      g.cs.faults,
		Observer:       s.flightObserver(slot, g.key),
	}
	if g.cs.spec.ErrorPolicy == "collect" {
		opt.ErrorPolicy = flow.Collect
	}
	// Progress heartbeats feed the stall watchdog: each completed
	// scheduler job refreshes the flight's wall-clock liveness. Without
	// a watchdog nothing reads it, and a job need not take the lock.
	if s.cfg.StallTimeout > 0 {
		opt.Heartbeat = func(int, vivado.Minutes) {
			s.mu.Lock()
			g.lastBeat = s.now()
			s.mu.Unlock()
		}
	}

	tr := s.cfg.Observer.Tracer()
	spanStart := tr.Now()

	res, err := s.runFlow(g.ctx, g.cs, opt)

	s.mu.Lock()
	s.running--
	s.gRunning.Set(float64(s.running))
	end := s.now()
	s.hRunSec.Observe(end.Sub(g.started).Seconds())

	// Watchdog requeue: the stall cancelled this run, subscribers are
	// still waiting and the budget has room — put the flight back on
	// the queue with a fresh context instead of failing it.
	if err != nil && g.stalled && !s.draining && len(g.jobs) > 0 && g.requeues < s.cfg.StallRequeues {
		g.requeues++
		g.stalled = false
		g.running = false
		oldCancel := g.cancel
		g.ctx, g.cancel = context.WithCancel(context.Background())
		g.enqueued = end
		for _, j := range g.jobs {
			s.transitionLocked(walRecord{Op: walRequeued, Job: j.ID}, end)
		}
		s.enqueueLocked(g)
		s.cond.Signal()
		requeues := g.requeues
		s.mu.Unlock()
		oldCancel()
		if tr != nil {
			tr.Instant("server", "stall-requeue/"+g.cs.spec.Preset, serverTIDBase+slot,
				map[string]any{"key": g.key, "requeues": requeues})
		}
		return
	}

	delete(s.flights, g.key)
	poisoned := err != nil && g.stalled && !s.draining && len(g.jobs) > 0
	var rv *ResultView
	if err == nil {
		rv = summarizeResult(g.cs.spec, res)
	}
	for _, j := range g.jobs {
		rec, counter := walRecord{Op: walDone, Job: j.ID, State: StateSucceeded, Result: rv}, s.mCompleted
		switch {
		case poisoned:
			rec, counter = walRecord{Op: walPoisoned, Job: j.ID, Error: fmt.Sprintf(
				"poisoned: no scheduler progress for %v after %d attempts: %v",
				s.cfg.StallTimeout, g.requeues+1, err)}, s.mPoisoned
		case err != nil:
			rec, counter = walRecord{Op: walDone, Job: j.ID, State: StateFailed, Error: err.Error()}, s.mFailed
		}
		if s.transitionLocked(rec, end) {
			counter.Inc()
		}
	}
	// Circuit breaker accounting: only organic outcomes count — runs
	// whose subscribers all cancelled, or that died in a drain, say
	// nothing about the spec itself.
	if len(g.jobs) > 0 && !s.draining {
		if err != nil {
			s.breakerFailureLocked(g.tenant, g.key, end)
		} else {
			delete(s.breakers, tenantKey(g.tenant, g.key))
		}
	}
	nJobs := len(g.jobs)
	g.jobs = nil
	s.mu.Unlock()
	g.cancel() // release the group context

	if tr != nil {
		args := map[string]any{"key": g.key, "tenant": g.tenant, "subscribers": nJobs}
		if err != nil {
			args["error"] = err.Error()
		}
		tr.Complete("server", "flight/"+g.cs.spec.Preset, serverTIDBase+slot, spanStart, tr.Now()-spanStart, args)
	}
}

// flightObserver is the observer a flight running on worker slot
// hands its flow run. Concurrent flights share the server's registry
// and trace, but each writes its scheduler lanes into a block of its
// own, one lane per job worker (named slot-<slot>/worker-<w> by New),
// and tags its spans with the flight key, so a trace of a busy server
// stays well nested.
func (s *Server) flightObserver(slot int, key string) *obs.Observer {
	return s.cfg.Observer.Scoped(slot*s.flightLanes(), map[string]any{"flight": key})
}

// flightLanes is the size of each worker slot's trace lane block.
func (s *Server) flightLanes() int {
	lanes, err := flow.NormalizeWorkers(s.cfg.JobWorkers)
	if err != nil {
		return 1 // the flow run rejects the count itself
	}
	return lanes
}

// breakerFailureLocked records one organic failure for (tenant, spec)
// and opens the circuit at the threshold. Callers hold s.mu.
func (s *Server) breakerFailureLocked(tenant, specKey string, now time.Time) {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	bk := tenantKey(tenant, specKey)
	b := s.breakers[bk]
	if b == nil {
		b = &breakerState{}
		s.breakers[bk] = b
	}
	b.fails++
	if b.fails >= s.cfg.BreakerThreshold {
		wasOpen := now.Before(b.openUntil)
		b.openUntil = now.Add(s.cfg.BreakerCooldown)
		if !wasOpen {
			s.mBreakerOpen.Inc()
			if tr := s.cfg.Observer.Tracer(); tr != nil {
				tr.Instant("server", "breaker-open", serverTIDBase,
					map[string]any{"tenant": tenant, "key": specKey, "failures": b.fails})
			}
		}
	}
}

// watchdog scans running flights and cancels any whose last progress
// heartbeat is older than StallTimeout. Detection uses the wall clock
// (s.now); progress itself is reported in virtual minutes — a flight
// modelling hours of CAD time is fine as long as heartbeats keep
// arriving in real time.
func (s *Server) watchdog(quit chan struct{}) {
	defer s.wg.Done()
	interval := s.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-quit:
			return
		case <-tick.C:
		}
		type stall struct {
			key, tenant string
			cancel      context.CancelFunc
		}
		var stalled []stall
		s.mu.Lock()
		now := s.now()
		for _, g := range s.flights {
			if g.running && !g.stalled && now.Sub(g.lastBeat) > s.cfg.StallTimeout {
				g.stalled = true
				s.mStalls.Inc()
				stalled = append(stalled, stall{g.key, g.tenant, g.cancel})
			}
		}
		s.mu.Unlock()
		for _, st := range stalled {
			if tr := s.cfg.Observer.Tracer(); tr != nil {
				tr.Instant("server", "stall-detected", serverTIDBase,
					map[string]any{"key": st.key, "tenant": st.tenant})
			}
			st.cancel()
		}
	}
}

// Get returns tenant's job by ID. A job owned by another tenant is
// ErrNotFound — existence is not leaked across tenants.
func (s *Server) Get(tenant, id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.Tenant != tenant {
		return JobView{}, ErrNotFound
	}
	return j.viewLocked(), nil
}

// List returns all of tenant's jobs in submission order.
func (s *Server) List(tenant string) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, 8)
	for _, id := range report.SortedKeys(s.jobs) {
		if j := s.jobs[id]; j.Tenant == tenant {
			out = append(out, j.viewLocked())
		}
	}
	return out
}

// Cancel marks tenant's job cancelled. Cancelling a queued job frees
// its queue slot when it was the group's last subscriber; cancelling a
// running job detaches the subscription and stops the underlying run
// only when nobody else is waiting on it. Re-cancelling a cancelled
// job is a no-op returning the job as-is, so poll/cancel races are
// harmless; cancelling a job that already finished some other way is
// ErrFinished (the HTTP layer's 409), distinct from an unknown ID's
// ErrNotFound (404).
func (s *Server) Cancel(tenant, id string) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.Tenant != tenant {
		s.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	if j.State.terminal() {
		v := j.viewLocked()
		wasCancelled := j.State == StateCancelled
		s.mu.Unlock()
		if wasCancelled {
			return v, nil
		}
		return v, ErrFinished
	}
	g := j.group
	s.transitionLocked(walRecord{Op: walCancelled, Job: j.ID}, s.now())
	s.mCancelled.Inc()
	var cancelRun bool
	if g != nil {
		for i, gj := range g.jobs {
			if gj == j {
				g.jobs = append(g.jobs[:i:i], g.jobs[i+1:]...)
				break
			}
		}
		if len(g.jobs) == 0 {
			if !g.running {
				s.removeQueuedLocked(g)
			}
			cancelRun = true // nobody wants the result anymore
		}
	}
	v := j.viewLocked()
	s.mu.Unlock()
	if cancelRun {
		g.cancel()
	}
	return v, nil
}

// Stats is a point-in-time snapshot of the server's occupancy.
type Stats struct {
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
}

// Snapshot returns current occupancy.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Queued: s.queued, Running: s.running, Jobs: len(s.jobs), Draining: s.draining}
}

// Shutdown drains the server: admission stops (submissions get
// ErrDraining), every queued-but-unadmitted job is rejected with a
// clean "server draining" error, and in-flight runs are left to finish
// through the engine's drain-on-cancel semantics. If ctx
// expires first, the remaining runs are cancelled at the next job
// boundary and Shutdown still waits for the workers to exit before
// returning ctx's error. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Reject everything still waiting for admission, in sorted
		// tenant order so the rejection sequence is deterministic.
		for _, tenant := range report.SortedKeys(s.queues) {
			for _, g := range s.queues[tenant] {
				for _, j := range g.jobs {
					rec := walRecord{Op: walDone, Job: j.ID, State: StateRejected, Error: ErrDraining.Error()}
					if s.transitionLocked(rec, s.now()) {
						s.mRejected.Inc()
					}
				}
				g.jobs = nil
				delete(s.flights, g.key)
				g.cancel()
			}
		}
		s.queues = make(map[string][]*group)
		s.rr = nil
		s.queued = 0
		s.gQueueDepth.Set(0)
		if s.watchdogQuit != nil {
			close(s.watchdogQuit)
			s.watchdogQuit = nil
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeWAL()
		return nil
	case <-ctx.Done():
		// Grace period over: stop in-flight runs at the next job
		// boundary and wait for the workers to wind down.
		s.mu.Lock()
		var cancels []context.CancelFunc
		for _, g := range s.flights {
			cancels = append(cancels, g.cancel)
		}
		s.mu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
		<-done
		s.closeWAL()
		return ctx.Err()
	}
}

// closeWAL releases the job log after the last worker exits, then the
// state directory's lock; later appends become no-ops.
func (s *Server) closeWAL() {
	s.mu.Lock()
	w, lock := s.wal, s.lock
	s.wal, s.lock = nil, nil
	s.mu.Unlock()
	if w != nil {
		w.close() //nolint:errcheck // every durable record was already fsynced
	}
	if lock != nil {
		lock.Close() //nolint:errcheck // closing the descriptor drops the flock
	}
}
