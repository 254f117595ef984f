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
	completed []bool
	runs      []int
	violation string
}

func newRecorder(n int) *recorder {
	return &recorder{completed: make([]bool, n), runs: make([]int, n)}
}

// instrument wraps job h's body so the recorder checks, on entry, that
// the dependencies it must wait for completed, and records completion
// on exit.
func (r *recorder) instrument(h int, waitsOn []int, fail bool) func(ctx context.Context) (vivado.Minutes, error) {
	return func(_ context.Context) (vivado.Minutes, error) {
		r.mu.Lock()
		for _, dep := range waitsOn {
			if !r.completed[dep] && r.violation == "" {
				r.violation = fmt.Sprintf("job %s started before dependency %s completed", jobName(h), jobName(dep))
			}
		}
		r.runs[h]++
		r.completed[h] = true
		r.mu.Unlock()
		if fail {
			return 0, fmt.Errorf("job %s failed", jobName(h))
		}
		return 1, nil
	}
}

func jobName(h int) string { return fmt.Sprintf("job%03d", h) }

// dagSpec is the shape of a random graph: each job's dependency
// handles, and which jobs fail or are settled (pre-completed by the
// stage cache, as a hit at graph-build time records them).
type dagSpec struct {
	deps    [][]int
	fails   []bool
	settled []bool
}

// randomDAG builds a graph of n jobs where each job depends on a random
// subset of earlier jobs (acyclic by construction). A job is settled
// with probability pSettle — settled jobs take no dependencies, like a
// stage-cache hit — and otherwise fails with probability pFail.
func randomDAG(rng *rand.Rand, n int, pFail, pSettle float64) (*graph, *recorder, dagSpec) {
	g := &graph{}
	rec := newRecorder(n)
	spec := dagSpec{deps: make([][]int, n), fails: make([]bool, n), settled: make([]bool, n)}
	for h := 0; h < n; h++ {
		stage := Stage(rng.Intn(4))
		if rng.Float64() < pSettle {
			spec.settled[h] = true
			if got := g.settle(jobName(h), stage, 1); got != h {
				panic(fmt.Sprintf("settle returned handle %d, want %d", got, h))
			}
			continue
		}
		var deps, waitsOn []int
		for j := 0; j < h; j++ {
			if rng.Float64() < 0.25 {
				deps = append(deps, j)
				if !spec.settled[j] {
					waitsOn = append(waitsOn, j)
				}
			}
		}
		spec.deps[h] = deps
		spec.fails[h] = rng.Float64() < pFail
		if got := g.add(jobName(h), stage, deps, rec.instrument(h, waitsOn, spec.fails[h])); got != h {
			panic(fmt.Sprintf("add returned handle %d, want %d", got, h))
		}
	}
	return g, rec, spec
}

// collect executes g under the Collect error policy — the semantics
// predictOutcome models: a failure cancels only its transitive
// dependents and independent jobs keep running.
func collect(ctx context.Context, g *graph, workers int, heartbeat func(int, vivado.Minutes)) (JobStats, []JobError, error) {
	return g.execute(ctx, Options{Workers: workers, ErrorPolicy: Collect, Heartbeat: heartbeat})
}

// predictOutcome walks the DAG in insertion order (dependencies always
// precede dependents) and computes which jobs must run, which must be
// cancelled, and which failure the scheduler must report. A settled job
// neither runs nor is cancelled, and counts as a succeeded dependency.
func predictOutcome(spec dagSpec) (ran, cancelled map[int]bool, firstErr string) {
	ran = make(map[int]bool)
	cancelled = make(map[int]bool)
	for h := range spec.deps {
		if spec.settled[h] {
			continue
		}
		blocked := false
		for _, dep := range spec.deps[h] {
			if cancelled[dep] || (ran[dep] && spec.fails[dep]) {
				blocked = true
				break
			}
		}
		if blocked {
			cancelled[h] = true
			continue
		}
		ran[h] = true
		if spec.fails[h] && firstErr == "" {
			firstErr = fmt.Sprintf("job %s failed", jobName(h))
		}
	}
	return ran, cancelled, firstErr
}

// checkExecution runs a random graph and verifies the scheduler's
// contract against the predicted outcome, for one worker count.
func checkExecution(t *testing.T, rng *rand.Rand, n int, pFail, pSettle float64, workers int) {
	t.Helper()
	g, rec, spec := randomDAG(rng, n, pFail, pSettle)
	wantRan, wantCancelled, wantErr := predictOutcome(spec)
	settled := 0
	for _, s := range spec.settled {
		if s {
			settled++
		}
	}

	hb := &heartbeats{t: t}
	stats, errs, err := collect(context.Background(), g, workers, hb.beat)
	if err == nil && len(errs) > 0 {
		err = errs[0].Err
	}

	if rec.violation != "" {
		t.Fatalf("workers=%d: dependency violation: %s", workers, rec.violation)
	}
	for h, count := range rec.runs {
		switch {
		case wantRan[h] && count != 1:
			t.Fatalf("workers=%d: job %s ran %d times, want once", workers, jobName(h), count)
		case !wantRan[h] && count != 0:
			t.Fatalf("workers=%d: job %s ran %d times (settled %v, cancelled %v), want never",
				workers, jobName(h), count, spec.settled[h], wantCancelled[h])
		}
	}
	if stats.Cancelled != len(wantCancelled) {
		t.Fatalf("workers=%d: cancelled %d jobs, want %d", workers, stats.Cancelled, len(wantCancelled))
	}
	if got := stats.Executed(); got != len(wantRan) {
		t.Fatalf("workers=%d: executed %d jobs, want %d", workers, got, len(wantRan))
	}
	if stats.Skipped != settled {
		t.Fatalf("workers=%d: skipped %d jobs, want the %d settled", workers, stats.Skipped, settled)
	}
	if got := stats.Executed() + stats.Skipped + stats.Cancelled; got != n {
		t.Fatalf("workers=%d: executed + skipped + cancelled = %d, want %d", workers, got, n)
	}
	if want := settled + len(wantRan) - stats.FailedJobs; hb.n != want {
		t.Fatalf("workers=%d: %d heartbeats, want %d (settled + succeeded)", workers, hb.n, want)
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
// job runs exactly once, settled jobs never run and never hold their
// dependents back, failures cancel exactly the transitive dependents,
// and the reported error never depends on scheduling.
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
			pSettle := 0.0
			if seed%3 != 0 {
				pSettle = 0.3
			}
			checkExecution(t, rng, n, pFail, pSettle, workers)
		}
	}
}

// FuzzSchedulerExecute drives the same property check from fuzzed
// (seed, size, failure-rate, settled-rate, workers) tuples.
func FuzzSchedulerExecute(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(25), uint8(40), uint8(60), uint8(4))
	f.Add(int64(99), uint8(40), uint8(128), uint8(200), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, size, failPct, settlePct, workers uint8) {
		n := 1 + int(size)%48
		pFail := float64(failPct) / 255.0
		pSettle := float64(settlePct) / 255.0
		w := 1 + int(workers)%16
		checkExecution(t, rand.New(rand.NewSource(seed)), n, pFail, pSettle, w)
	})
}

// TestSchedulerRejectsBadGraphs covers the construction-time contract:
// a job without an ID or a work function, or one depending on a handle
// that was not added before it, is a programming bug and panics.
func TestSchedulerRejectsBadGraphs(t *testing.T) {
	noop := func(_ context.Context) (vivado.Minutes, error) { return 0, nil }
	g := &graph{}
	if h := g.add("a", StageSynth, nil, noop); h != 0 {
		t.Fatalf("first job got handle %d, want 0", h)
	}
	for name, add := range map[string]func(){
		"empty job ID":        func() { g.add("", StageSynth, nil, noop) },
		"nil work function":   func() { g.add("b", StageSynth, nil, nil) },
		"forward dependency":  func() { g.add("c", StageSynth, []int{1}, noop) },
		"negative dependency": func() { g.add("d", StageSynth, []int{-1}, noop) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			add()
		}()
	}
	if len(g.jobs) != 1 {
		t.Fatalf("rejected jobs were added: %d jobs", len(g.jobs))
	}
}

// TestSchedulerEmptyGraph: executing nothing succeeds with zero stats.
func TestSchedulerEmptyGraph(t *testing.T) {
	stats, _, err := collect(context.Background(), &graph{}, 8, nil)
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
