package flow

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"presp/internal/socgen"
	"presp/internal/vivado"
)

// recorder observes a graph execution: which jobs ran, how often, and
// whether every dependency had completed when its dependent started.
type recorder struct {
	mu        sync.Mutex
	completed map[string]bool
	runs      map[string]int
	violation string
}

func newRecorder() *recorder {
	return &recorder{completed: make(map[string]bool), runs: make(map[string]int)}
}

// instrument wraps a job body so the recorder checks dependency order on
// entry and records completion on exit.
func (r *recorder) instrument(id string, deps []string, fail bool) func(ctx context.Context) (vivado.Minutes, error) {
	return func(_ context.Context) (vivado.Minutes, error) {
		r.mu.Lock()
		for _, dep := range deps {
			if !r.completed[dep] {
				if r.violation == "" {
					r.violation = fmt.Sprintf("job %s started before dependency %s completed", id, dep)
				}
			}
		}
		r.runs[id]++
		r.mu.Unlock()

		r.mu.Lock()
		r.completed[id] = true
		r.mu.Unlock()
		if fail {
			return 0, fmt.Errorf("job %s failed", id)
		}
		return 1, nil
	}
}

// randomDAG builds a graph of n jobs where each job depends on a random
// subset of earlier jobs (acyclic by construction) and each job fails
// with probability pFail. It returns the graph, the recorder, the
// dependency lists and the set of fail-designated jobs.
func randomDAG(rng *rand.Rand, n int, pFail float64) (*graph, *recorder, map[string][]string, map[string]bool) {
	g := newGraph()
	rec := newRecorder()
	deps := make(map[string][]string, n)
	fails := make(map[string]bool)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job%03d", i)
		ids[i] = id
		var d []string
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.25 {
				d = append(d, ids[j])
			}
		}
		deps[id] = d
		fail := rng.Float64() < pFail
		fails[id] = fail
		stage := Stage(rng.Intn(4))
		if err := g.add(id, stage, d, nil, rec.instrument(id, d, fail)); err != nil {
			panic(err)
		}
	}
	return g, rec, deps, fails
}

// collect executes g under the Collect error policy — the semantics
// predictOutcome models: a failure cancels only its transitive
// dependents and independent jobs keep running.
func collect(ctx context.Context, g *graph, workers int, heartbeat func(int, vivado.Minutes)) (JobStats, []JobError, error) {
	return g.execute(ctx, Options{Workers: workers, ErrorPolicy: Collect, Heartbeat: heartbeat})
}

// predictOutcome walks the DAG in insertion order (dependencies always
// precede dependents) and computes which jobs must run, which must be
// cancelled, and which failure the scheduler must report.
func predictOutcome(n int, deps map[string][]string, fails map[string]bool) (ran, cancelled map[string]bool, firstErr string) {
	ran = make(map[string]bool)
	cancelled = make(map[string]bool)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job%03d", i)
		blocked := false
		for _, dep := range deps[id] {
			if cancelled[dep] || (ran[dep] && fails[dep]) {
				blocked = true
				break
			}
		}
		if blocked {
			cancelled[id] = true
			continue
		}
		ran[id] = true
		if fails[id] && firstErr == "" {
			firstErr = fmt.Sprintf("job %s failed", id)
		}
	}
	return ran, cancelled, firstErr
}

// checkExecution runs graph g and verifies the scheduler's contract
// against the predicted outcome, for one worker count.
func checkExecution(t *testing.T, rng *rand.Rand, n int, pFail float64, workers int) {
	t.Helper()
	g, rec, deps, fails := randomDAG(rng, n, pFail)
	wantRan, wantCancelled, wantErr := predictOutcome(n, deps, fails)

	stats, errs, err := collect(context.Background(), g, workers, nil)
	if err == nil && len(errs) > 0 {
		err = errs[0].Err
	}

	if rec.violation != "" {
		t.Fatalf("workers=%d: dependency violation: %s", workers, rec.violation)
	}
	for id, count := range rec.runs {
		if count != 1 {
			t.Fatalf("workers=%d: job %s ran %d times", workers, id, count)
		}
	}
	for id := range wantRan {
		if rec.runs[id] != 1 {
			t.Fatalf("workers=%d: job %s should have run", workers, id)
		}
	}
	for id := range wantCancelled {
		if rec.runs[id] != 0 {
			t.Fatalf("workers=%d: cancelled job %s ran", workers, id)
		}
	}
	if stats.Cancelled != len(wantCancelled) {
		t.Fatalf("workers=%d: cancelled %d jobs, want %d", workers, stats.Cancelled, len(wantCancelled))
	}
	if got := stats.Executed(); got != len(wantRan) {
		t.Fatalf("workers=%d: executed %d jobs, want %d", workers, got, len(wantRan))
	}
	if wantErr == "" {
		if err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
	} else {
		if err == nil {
			t.Fatalf("workers=%d: expected error %q, got nil", workers, wantErr)
		}
		if err.Error() != wantErr {
			t.Fatalf("workers=%d: error %q, want %q (error selection must be deterministic)", workers, err, wantErr)
		}
	}
}

// TestSchedulerRandomDAGs is the property suite: across many random DAGs
// and worker counts, no job runs before its dependencies, every runnable
// job runs exactly once, failures cancel exactly the transitive
// dependents, and the reported error never depends on scheduling.
func TestSchedulerRandomDAGs(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for seed := int64(0); seed < 30; seed++ {
		for _, workers := range workerCounts {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(40)
			pFail := 0.0
			if seed%2 == 1 {
				pFail = 0.15
			}
			checkExecution(t, rng, n, pFail, workers)
		}
	}
}

// FuzzSchedulerExecute drives the same property check from fuzzed
// (seed, size, failure-rate, workers) tuples.
func FuzzSchedulerExecute(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint8(1))
	f.Add(int64(2), uint8(25), uint8(40), uint8(4))
	f.Add(int64(99), uint8(40), uint8(128), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, size, failPct, workers uint8) {
		n := 1 + int(size)%48
		pFail := float64(failPct) / 255.0
		w := 1 + int(workers)%16
		checkExecution(t, rand.New(rand.NewSource(seed)), n, pFail, w)
	})
}

// TestSchedulerDetectsCycles: a cyclic graph must error out instead of
// deadlocking the pool.
func TestSchedulerDetectsCycles(t *testing.T) {
	g := newGraph()
	noop := func(_ context.Context) (vivado.Minutes, error) { return 0, nil }
	if err := g.add("a", StageSynth, []string{"b"}, nil, noop); err != nil {
		t.Fatal(err)
	}
	if err := g.add("b", StageSynth, []string{"a"}, nil, noop); err != nil {
		t.Fatal(err)
	}
	if err := g.add("c", StageSynth, nil, nil, noop); err != nil {
		t.Fatal(err)
	}
	_, _, err := collect(context.Background(), g, 4, nil)
	if err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestSchedulerRejectsBadGraphs covers the construction-time contract.
func TestSchedulerRejectsBadGraphs(t *testing.T) {
	noop := func(_ context.Context) (vivado.Minutes, error) { return 0, nil }
	g := newGraph()
	if err := g.add("a", StageSynth, nil, nil, noop); err != nil {
		t.Fatal(err)
	}
	if err := g.add("a", StageSynth, nil, nil, noop); err == nil {
		t.Fatal("duplicate job accepted")
	}
	if err := g.add("", StageSynth, nil, nil, noop); err == nil {
		t.Fatal("empty job ID accepted")
	}
	if err := g.add("b", StageSynth, nil, nil, nil); err == nil {
		t.Fatal("nil work function accepted")
	}
	if err := g.add("c", StageSynth, []string{"ghost"}, nil, noop); err != nil {
		t.Fatal(err) // unknown deps surface at execute, not add
	}
	if _, _, err := collect(context.Background(), g, 2, nil); err == nil {
		t.Fatal("unknown dependency not detected")
	}
}

// TestSchedulerEmptyGraph: executing nothing succeeds with zero stats.
func TestSchedulerEmptyGraph(t *testing.T) {
	stats, _, err := collect(context.Background(), newGraph(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed() != 0 || stats.Cancelled != 0 {
		t.Fatalf("empty graph reported work: %+v", stats)
	}
}

// heartbeats records every Heartbeat call of a run, failing the test
// unless completed counts 1, 2, 3, ... with no gap or repeat.
type heartbeats struct {
	t       *testing.T
	n       int
	virtual vivado.Minutes
}

func (h *heartbeats) beat(completed int, virtual vivado.Minutes) {
	h.n++
	if completed != h.n {
		h.t.Fatalf("heartbeat %d reported completed=%d", h.n, completed)
	}
	h.virtual = virtual
}

// TestHeartbeatContract pins Options.Heartbeat as the scheduler drives
// it: one beat per job that succeeded or was skipped by the stage
// cache, none for a failed job, completed counting 1..N, and — on a
// cold run — a final virtual position equal to Jobs.SimMinutes.
func TestHeartbeatContract(t *testing.T) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		sc := vivado.NewStageCache()
		run := func(opt Options) (*Result, *heartbeats) {
			t.Helper()
			hb := &heartbeats{t: t}
			opt.Workers, opt.Compress, opt.Heartbeat = workers, true, hb.beat
			res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), opt)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return res, hb
		}

		cold, hb := run(Options{StageCache: sc})
		if cold.Jobs.Skipped != 0 || hb.n != cold.Jobs.Executed() {
			t.Fatalf("workers=%d cold: %d beats for %d executed, %d skipped jobs",
				workers, hb.n, cold.Jobs.Executed(), cold.Jobs.Skipped)
		}
		if hb.virtual != cold.Jobs.SimMinutes {
			t.Fatalf("workers=%d cold: final virtual %v, want SimMinutes %v", workers, hb.virtual, cold.Jobs.SimMinutes)
		}

		warm, hb := run(Options{StageCache: sc})
		if warm.Jobs.Skipped == 0 || hb.n != warm.Jobs.Executed()+warm.Jobs.Skipped {
			t.Fatalf("workers=%d warm: %d beats for %d executed + %d skipped jobs",
				workers, hb.n, warm.Jobs.Executed(), warm.Jobs.Skipped)
		}

		faulted, hb := run(Options{ErrorPolicy: Collect, FaultPlan: parsePlan(t, "synth@rt_1_rp:count=-1")})
		if faulted.Jobs.FailedJobs == 0 {
			t.Fatalf("workers=%d: synth fault plan failed no job", workers)
		}
		if want := faulted.Jobs.Executed() - faulted.Jobs.FailedJobs; hb.n != want {
			t.Fatalf("workers=%d collect: %d beats, want %d (executed %d - failed %d)",
				workers, hb.n, want, faulted.Jobs.Executed(), faulted.Jobs.FailedJobs)
		}
	}
}
