package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"presp/internal/flow"
	"presp/internal/obs"
	"presp/internal/vivado"
)

// bootWALServer builds a recovered server rooted at dir, with runFlow
// substituted BEFORE Recover so re-enqueued jobs hit the stub too.
func bootWALServer(t *testing.T, dir string, run func(context.Context, *compiledSpec, flow.Options) (*flow.Result, error), cfg Config) (*Server, RecoveryStats) {
	t.Helper()
	cfg.StateDir = dir
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s := newTestServer(t, cfg)
	if run != nil {
		s.runFlow = run
	}
	stats, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s, stats
}

func TestRecoverNoStateDir(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	stats, err := s.Recover()
	if err != nil || stats != (RecoveryStats{}) {
		t.Fatalf("Recover without StateDir = %+v, %v; want zero stats, nil", stats, err)
	}
	if _, err := s.Recover(); err == nil {
		t.Fatal("second Recover succeeded, want error")
	}
}

// TestSubmitIsDurable: the admitted record must be on disk (fsynced,
// CRC-clean) by the time Submit returns — that is the whole contract.
func TestSubmitIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := &stubRunner{gate: make(chan struct{})}
	s, _ := bootWALServer(t, dir, st.run, Config{})
	defer close(st.gate)

	v, err := s.Submit("acme", Spec{Preset: "SOC_2", Tau: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatalf("wal not on disk after submit: %v", err)
	}
	recs, clean := decodeWALPrefix(data)
	if clean != len(data) {
		t.Fatalf("wal has a dirty tail right after submit: clean %d of %d", clean, len(data))
	}
	var admitted *walRecord
	for i := range recs {
		if recs[i].Op == walAdmitted && recs[i].Job == v.ID {
			admitted = &recs[i]
		}
	}
	if admitted == nil {
		t.Fatalf("no admitted record for %s in %d records", v.ID, len(recs))
	}
	if admitted.Tenant != "acme" || admitted.Spec == nil || admitted.Spec.Tau != 7 {
		t.Fatalf("admitted record lost the submission: %+v", admitted)
	}
}

// TestRecoverCountsFollowerAttempt: a job that joins a running flight
// shares that run, so a crash interrupts it as much as the leader, and
// recovery must count the interrupted attempt for both.
func TestRecoverCountsFollowerAttempt(t *testing.T) {
	dir := t.TempDir()
	st := &stubRunner{gate: make(chan struct{}), started: make(chan int, 1)}
	s, _ := bootWALServer(t, dir, st.run, Config{})
	defer close(st.gate)

	spec := Spec{Preset: "SOC_2", Tau: 10}
	a, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	b, err := s.Submit("beta", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Deduplicated || b.State != StateRunning {
		t.Fatalf("follower did not join the running flight: %+v", b)
	}

	// The crash strikes with the run still held at the gate.
	data, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "jobs.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := bootWALServer(t, dir2, (&stubRunner{}).run, Config{})
	for _, j := range []JobView{a, b} {
		v := waitState(t, s2, j.Tenant, j.ID, StateSucceeded)
		if v.Attempts != 1 {
			t.Errorf("job %s (%s) recovered with %d attempts, want 1", j.ID, j.Tenant, v.Attempts)
		}
	}
}

// buildScenarioWAL drives a live durable server through a representative
// history — a run with a dedup subscriber and an idempotency key, a
// queued-then-cancelled job, a second completed run, a failed run — and
// returns the clean WAL records it wrote.
func buildScenarioWAL(t *testing.T) []walRecord {
	t.Helper()
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan int, 16)
	st := &stubRunner{gate: gate, started: started}
	failing := fmt.Errorf("synthetic P&R failure")
	run := func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		if cs.spec.Tau == 40 { // the designated failing spec
			return nil, failing
		}
		return st.run(ctx, cs, opt)
	}
	// The clock is pinned an hour before the one TestGoldenRecoveredViews
	// recovers with, so its golden shows which view times come from the
	// log and which from the boot.
	submitted := func() time.Time { return time.Date(2026, 8, 7, 11, 0, 0, 0, time.UTC) }
	s, _ := bootWALServer(t, dir, run, Config{Workers: 1, Now: submitted})

	// j1 runs (held at the gate), j2 queues behind it, j3 dedups onto
	// j1's flight, j2 is cancelled while queued.
	j1, _, err := s.SubmitIdempotent("acme", "build-1", Spec{Preset: "SOC_2", Tau: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := s.Submit("beta", Spec{Preset: "SOC_2", Tau: 20})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit("gamma", Spec{Preset: "SOC_2", Tau: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Deduplicated {
		t.Fatalf("j3 should have deduped onto j1's flight: %+v", j3)
	}
	if _, err := s.Cancel("beta", j2.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, s, "acme", j1.ID, StateSucceeded)
	waitState(t, s, "gamma", j3.ID, StateSucceeded)

	// j4 fails organically.
	j4, err := s.Submit("acme", Spec{Preset: "SOC_2", Tau: 40})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "acme", j4.ID, StateFailed)

	// j5 is admitted and left running at "crash" time: the worker wedges
	// on a fresh gate so no terminal record lands. The gate opens at
	// cleanup (before the server's own drain) so leakcheck stays happy.
	gate2 := make(chan struct{})
	st.gate = gate2
	t.Cleanup(func() { close(gate2) })
	if _, err := s.Submit("acme", Spec{Preset: "SOC_2", Tau: 50}); err != nil {
		t.Fatal(err)
	}

	// Read the WAL while the server still lives — Shutdown would append
	// drain records that a kill -9 would never write. The read is safe:
	// every append is atomic and fsynced.
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
		if err != nil {
			t.Fatal(err)
		}
		recs, clean := decodeWALPrefix(data)
		if clean != len(data) {
			t.Fatalf("live WAL has a dirty tail: clean %d of %d", clean, len(data))
		}
		// Wait until j5's started record lands so the scenario includes
		// an interrupted run, not just a queued job.
		for _, r := range recs {
			if r.Op == walStarted && r.Job == "j000005" {
				return recs
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("j5 never started; %d records", len(recs))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replayJob is one job's state folded from its WAL records.
type replayJob struct {
	id, tenant, key, idem string
	spec                  Spec
	started               bool
	attempts              int
	state                 JobState // terminal state, or "" if still live
	errStr                string
	result                *ResultView
	order                 int
}

// foldWAL folds a record sequence into per-job end states, preserving
// admission order. Records for jobs that were never admitted (their
// admission sat in the torn tail) are dropped — without a spec there
// is nothing to re-run, and the client never got an acknowledgement.
func foldWAL(recs []walRecord) (map[string]*replayJob, []string) {
	jobs := make(map[string]*replayJob)
	var order []string
	for _, r := range recs {
		switch r.Op {
		case walAdmitted:
			if _, dup := jobs[r.Job]; dup || r.Spec == nil {
				continue
			}
			jobs[r.Job] = &replayJob{
				id: r.Job, tenant: r.Tenant, key: r.Key, idem: r.Idem,
				spec: *r.Spec, order: len(order),
			}
			order = append(order, r.Job)
		case walStarted:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.started = true
			}
		case walRequeued:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.started = false
				j.attempts++
			}
		case walDone:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = r.State
				if j.state == "" {
					j.state = StateFailed
				}
				j.errStr = r.Error
				j.result = r.Result
			}
		case walCancelled:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = StateCancelled
			}
		case walPoisoned:
			if j := jobs[r.Job]; j != nil && j.state == "" {
				j.state = StatePoisoned
				j.errStr = r.Error
			}
		}
	}
	return jobs, order
}

// TestCrashEveryWALPrefix is the record-level crash battery: for every
// prefix of a realistic WAL — every point a kill -9 could have struck
// between appends — a fresh server must recover with zero lost and zero
// duplicated jobs, preserve terminal outcomes exactly, run every live
// job to completion, and come up fully terminal on a second restart.
// Each prefix also gets a torn fragment of the next record glued on,
// covering the mid-append kill points byte-exactly (the codec-level
// every-byte sweep is TestWALTornTailEveryLength).
func TestCrashEveryWALPrefix(t *testing.T) {
	recs := buildScenarioWAL(t)
	if len(recs) < 8 {
		t.Fatalf("scenario too thin: %d records", len(recs))
	}
	for k := 0; k <= len(recs); k++ {
		k := k
		t.Run(fmt.Sprintf("prefix-%02d", k), func(t *testing.T) {
			var img bytes.Buffer
			for _, r := range recs[:k] {
				enc, err := encodeWALRecord(r)
				if err != nil {
					t.Fatal(err)
				}
				img.Write(enc)
			}
			if k < len(recs) {
				// The kill struck mid-append: half the next record made it.
				enc, _ := encodeWALRecord(recs[k])
				img.Write(enc[:len(enc)/2])
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), img.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			st := &stubRunner{}
			s, stats := bootWALServer(t, dir, st.run, Config{Workers: 2})

			// Fold the clean prefix ourselves to know the ground truth.
			want, order := foldWAL(recs[:k])
			if stats.Jobs != len(order) {
				t.Fatalf("recovered %d jobs, want %d", stats.Jobs, len(order))
			}
			if n := s.Snapshot().Jobs; n != len(order) {
				t.Fatalf("job table has %d entries, want %d — lost or duplicated", n, len(order))
			}
			for _, id := range order {
				rj := want[id]
				v, err := s.Get(rj.tenant, id)
				if err != nil {
					t.Fatalf("job %s lost in recovery: %v", id, err)
				}
				if !v.Recovered {
					t.Fatalf("job %s not marked recovered", id)
				}
				if rj.state != "" && v.State != rj.state {
					t.Fatalf("job %s: terminal state %s not preserved (got %s)", id, rj.state, v.State)
				}
			}
			// Every live job must reach a terminal state under the stub.
			for _, id := range order {
				rj := want[id]
				if rj.state != "" {
					continue
				}
				v := waitState(t, s, rj.tenant, id, StateSucceeded)
				if rj.started && v.Attempts == 0 {
					t.Fatalf("interrupted job %s shows no recovery attempt", id)
				}
			}
			// An idempotent resubmit after the crash must return the
			// recovered job, never duplicate it.
			if _, ok := want["j000001"]; ok {
				v, replayed, err := s.SubmitIdempotent("acme", "build-1", Spec{Preset: "SOC_2", Tau: 10})
				if err != nil || !replayed || v.ID != "j000001" {
					t.Fatalf("idempotent resubmit = (%+v, %v, %v), want replay of j000001", v, replayed, err)
				}
			}
			if got := s.cfg.Observer.Metrics().Snapshot().Counters["server_recovered_jobs"]; got != int64(len(order)) {
				t.Fatalf("server_recovered_jobs = %d, want %d", got, len(order))
			}
			wantInstants := 0
			if len(order) > 0 {
				wantInstants = 1
			}
			if got := obs.CountInstants(s.cfg.Observer.Tracer().Events(), "server", "recovered"); got != wantInstants {
				t.Fatalf("trace has %d 'recovered' instants, want %d per boot", got, wantInstants)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Second restart: everything reached a terminal state above, so
			// nothing may requeue.
			s2, stats2 := bootWALServer(t, dir, st.run, Config{})
			if stats2.Jobs != len(order) || stats2.Requeued != 0 {
				t.Fatalf("second restart: %+v, want %d terminal jobs and 0 requeued", stats2, len(order))
			}
			_ = s2
		})
	}
}

// TestRecoverAttachesStateDirCache: with no disk tier configured,
// Recover roots one at <StateDir>/cache, which the first flow run
// shares with the stage cache, so a restarted daemon reuses the
// previous process's synthesis with no -cache-dir; a cache that already
// has a tier keeps it.
func TestRecoverAttachesStateDirCache(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Preset: "SOC_1", Compress: true}

	s1, _ := bootWALServer(t, dir, nil, Config{})
	if ds := s1.cache.Disk(); ds == nil || ds.Dir() != filepath.Join(dir, "cache") {
		t.Fatalf("Recover attached %v, want a disk tier at %s", ds, filepath.Join(dir, "cache"))
	}
	cold := runJob(t, s1, spec)
	if cold.CacheMisses == 0 {
		t.Fatal("cold run paid no synthesis")
	}
	if s1.stage.Disk() != s1.cache.Disk() {
		t.Fatal("stage cache does not share the state-dir disk tier")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	s2, _ := bootWALServer(t, dir, nil, Config{Observer: o})
	warm := runJob(t, s2, spec)
	if warm.CacheMisses != 0 {
		t.Fatalf("restart over the state dir paid %d synthesis misses, want 0", warm.CacheMisses)
	}
	if !reflect.DeepEqual(warm.BitstreamCRCs, cold.BitstreamCRCs) {
		t.Fatalf("bitstreams diverged across restart:\ncold %v\nwarm %v", cold.BitstreamCRCs, warm.BitstreamCRCs)
	}
	if got := o.Metrics().Snapshot().Counters["cache_disk_hits"]; got < 1 {
		t.Fatalf("cache_disk_hits = %d, want >= 1", got)
	}

	own, err := vivado.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := vivado.NewCheckpointCache()
	cache.SetDiskStore(own)
	other := t.TempDir()
	s3, _ := bootWALServer(t, other, nil, Config{Cache: cache})
	if s3.cache.Disk() != own {
		t.Fatal("Recover replaced the configured disk tier")
	}
	if _, err := os.Stat(filepath.Join(other, "cache")); !os.IsNotExist(err) {
		t.Fatalf("Recover created a state-dir cache next to a configured tier (stat: %v)", err)
	}
}

// --- Real kill -9 battery -------------------------------------------

// TestCrashDaemonChild is not a test: it is the daemon half of the
// kill -9 battery, run in a child process via re-exec. It serves a
// durable server with a real flow engine (slowed via heartbeats so the
// parent can land kills mid-run) until the parent kills it dead.
func TestCrashDaemonChild(t *testing.T) {
	dir := os.Getenv("PRESP_CRASH_CHILD")
	if dir == "" {
		t.Skip("not a crash child")
	}
	// No explicit cache: Recover roots the disk tier at <dir>/cache.
	s := New(Config{Workers: 1, StateDir: dir, Observer: obs.New()})
	real := s.runFlow
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		inner := opt.Heartbeat
		opt.Heartbeat = func(n int, v vivado.Minutes) {
			if inner != nil {
				inner(n, v)
			}
			time.Sleep(3 * time.Millisecond) // stretch the kill window
		}
		return real(ctx, cs, opt)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the address atomically so the parent never reads a torn
	// file.
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatal(err)
	}
	// Serve until killed. This process only ever dies by SIGKILL.
	http.Serve(ln, s.Handler()) //nolint:errcheck
	select {}
}

// killPoint is one moment the battery kills the daemon at.
type killPoint struct {
	name string
	// armed reports whether the daemon reached the point, given its
	// state directory.
	armed func(dir string) bool
}

// TestKill9CrashRecovery is the process-level half of the battery: a
// real daemon (child process, real flow engine, durable WAL, the
// state-dir disk tier) is killed with SIGKILL at increasingly late
// points — right after admission, mid-run once the first synthesis
// checkpoint is on disk — and a recovery server over the same state
// directory must finish the job with bitstream CRCs byte-identical to
// an uninterrupted reference run, reusing the persisted synthesis and
// without duplicating the job on idempotent resubmit.
func TestKill9CrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Preset: "SOC_1", Compress: true}

	// Reference: the same spec, uninterrupted.
	ref := runJob(t, newTestServer(t, Config{Workers: 1}), spec)
	if len(ref.BitstreamCRCs) == 0 {
		t.Fatal("reference run produced no bitstream CRCs")
	}

	points := []killPoint{
		{name: "after-admission", armed: func(dir string) bool {
			_, err := os.Stat(filepath.Join(dir, "jobs.wal"))
			return err == nil
		}},
		{name: "mid-run", armed: func(dir string) bool {
			ckpts, _ := filepath.Glob(filepath.Join(dir, "cache", "*.ckpt"))
			return len(ckpts) > 0
		}},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run", "^TestCrashDaemonChild$", "-test.v")
			cmd.Env = append(os.Environ(), "PRESP_CRASH_CHILD="+dir)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill() //nolint:errcheck
				cmd.Wait()         //nolint:errcheck
			}()

			// Wait for the daemon to publish its address.
			var addr string
			deadline := time.Now().Add(10 * time.Second)
			for addr == "" {
				if data, err := os.ReadFile(filepath.Join(dir, "addr")); err == nil {
					addr = string(data)
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("daemon never came up")
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Submit with an idempotency key, then kill at the point.
			body, _ := json.Marshal(spec)
			req, _ := http.NewRequest("POST", "http://"+addr+"/v1/jobs", bytes.NewReader(body))
			req.Header.Set("Idempotency-Key", "kill9-build")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, rb)
			}
			var accepted JobView
			if err := json.Unmarshal(rb, &accepted); err != nil {
				t.Fatal(err)
			}

			deadline = time.Now().Add(10 * time.Second)
			for !pt.armed(dir) {
				if time.Now().After(deadline) {
					t.Fatalf("kill point %q never armed", pt.name)
				}
				time.Sleep(time.Millisecond)
			}
			if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no flush
				t.Fatal(err)
			}
			cmd.Wait() //nolint:errcheck

			// Recover in-process over the same state directory, again
			// with no explicit cache.
			o := obs.New()
			s := newTestServer(t, Config{Workers: 1, StateDir: dir, Observer: o})
			stats, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Jobs < 1 {
				t.Fatalf("recovery found no jobs: %+v", stats)
			}

			// The job must finish (or already be finished) with CRCs
			// byte-identical to the uninterrupted reference.
			v, err := s.Get("default", accepted.ID)
			if err != nil {
				t.Fatalf("job %s lost across kill -9: %v", accepted.ID, err)
			}
			if !v.State.terminal() {
				v = waitState(t, s, "default", accepted.ID, StateSucceeded)
			}
			if v.State != StateSucceeded || v.Result == nil {
				t.Fatalf("recovered job: state %s, error %q", v.State, v.Error)
			}
			if !reflect.DeepEqual(v.Result.BitstreamCRCs, ref.BitstreamCRCs) {
				t.Fatalf("bitstreams diverged across kill -9:\nref       %v\nrecovered %v",
					ref.BitstreamCRCs, v.Result.BitstreamCRCs)
			}
			counters := o.Metrics().Snapshot().Counters
			if got := counters["server_recovered_jobs"]; got < 1 {
				t.Fatalf("server_recovered_jobs = %d, want >= 1", got)
			}
			// A mid-run kill must not re-pay the synthesis already on
			// disk: the rerun reads it back from the state-dir tier.
			if got := counters["cache_disk_hits"]; pt.name == "mid-run" && got < 1 {
				t.Fatalf("cache_disk_hits = %d after a mid-run kill, want >= 1", got)
			}

			// Idempotent resubmit after the crash returns the recovered
			// job — no duplicate work.
			again, replayed, err := s.SubmitIdempotent("default", "kill9-build", spec)
			if err != nil || !replayed || again.ID != accepted.ID {
				t.Fatalf("post-crash resubmit = (%+v, %v, %v), want replay of %s",
					again, replayed, err, accepted.ID)
			}
		})
	}
}
