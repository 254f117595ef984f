// Job-graph scheduler: the flow's CAD steps — out-of-context synthesis,
// floorplanning, per-partition implementation, bitstream generation —
// form a dependency DAG that a bounded pool of worker goroutines
// executes concurrently. Each job carries its *simulated* CAD runtime
// (vivado.Minutes), so the reported wall times stay the analytic values
// of the cost model whatever the worker count; only the real CPU time
// spent simulating shrinks on multicore hosts.
//
// The scheduler is an unexported detail of the flow, configured only by
// Options. It is fault-tolerant and cancellable: failed jobs are
// retried up to a cap with exponential *virtual-time* backoff (the
// penalty is accounted in modelled minutes, never slept for, so
// published cost-model numbers stay byte-identical for any worker
// count), and a cancelled context drains the pool at the next job
// boundary without leaking goroutines. Reported errors are selected
// deterministically (earliest job in graph-insertion order), so results
// are observationally identical for any worker count.
package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"presp/internal/obs"
	"presp/internal/vivado"
)

// Stage labels a job with the flow stage it belongs to, for the
// per-stage counters Result reports.
type Stage int

const (
	// StageSynth is (out-of-context) synthesis.
	StageSynth Stage = iota
	// StagePlan covers floorplanning, DFX design rule checks and script
	// generation.
	StagePlan
	// StageImpl is place-and-route (serial, static pre-route or
	// in-context).
	StageImpl
	// StageBitgen is bitstream generation.
	StageBitgen
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageSynth:
		return "synth"
	case StagePlan:
		return "plan"
	case StageImpl:
		return "impl"
	case StageBitgen:
		return "bitgen"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// NormalizeWorkers is the single validation point for worker-pool
// sizes, shared by flow.Options, the scheduler and presp-flow's
// -workers flag: negative counts are rejected, zero selects
// runtime.GOMAXPROCS(0).
func NormalizeWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("flow: worker count %d is negative (0 selects all CPUs)", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// job is one unit of CAD work in the dependency graph. run returns the
// job's simulated duration; the scheduler only accumulates it — wall-time
// aggregation (max over parallel instances, contention scaling) stays
// with the flow, which knows the paper's timing model.
type job struct {
	// id names the job in errors, trace events and fault sites.
	id string
	// stage classifies the job for Result accounting.
	stage Stage
	// deps holds the handles of the jobs that must complete successfully
	// first; each was added before this job, so the graph is acyclic by
	// construction.
	deps []int
	// run performs the work. It must honour ctx promptly: the scheduler
	// passes the execution context so cancelled flows stop mid-graph.
	// Nil for a settled job.
	run func(ctx context.Context) (vivado.Minutes, error)
	// settled marks a job the stage-artifact cache held when the graph
	// was built: its cached result is already published, so it never
	// runs and is never cancelled, and minutes are the cached job's
	// modelled minutes.
	settled bool
	minutes vivado.Minutes
}

// graph is a job dependency DAG under construction. Jobs are identified
// by handles — their insertion index, which is also the deterministic
// error-priority key.
type graph struct {
	jobs []job
	// stageMisses counts keyed jobs whose artifact the stage cache did
	// not hold when the graph was built.
	stageMisses int
}

// add registers a job that runs after deps, all handles of jobs already
// added, and returns its handle. Jobs are generated from validated
// designs, so a malformed job is a programming bug and panics.
func (g *graph) add(id string, stage Stage, deps []int, run func(ctx context.Context) (vivado.Minutes, error)) int {
	if id == "" || run == nil {
		panic(fmt.Sprintf("flow: job %q needs an ID and a work function", id))
	}
	for _, d := range deps {
		if d < 0 || d >= len(g.jobs) {
			panic(fmt.Sprintf("flow: job %q depends on handle %d, not a job added before it", id, d))
		}
	}
	g.jobs = append(g.jobs, job{id: id, stage: stage, deps: deps, run: run})
	return len(g.jobs) - 1
}

// settle registers a job whose result the stage-artifact cache already
// published, with its cached modelled minutes, and returns its handle.
// The scheduler books it as skipped before the first dispatch; its
// dependents wait only on their other dependencies.
func (g *graph) settle(id string, stage Stage, minutes vivado.Minutes) int {
	g.jobs = append(g.jobs, job{id: id, stage: stage, settled: true, minutes: minutes})
	return len(g.jobs) - 1
}

// JobStats summarizes one scheduler execution: how many jobs of each
// stage ran, how many were cancelled by an upstream failure or an
// aborted context, how often failed jobs were retried, how the
// synthesis cache performed and how much simulated CAD time the jobs
// accumulated (Σ over all attempts plus virtual backoff, not wall
// time).
type JobStats struct {
	// Workers is the worker-pool size the graph executed on.
	Workers int
	// SynthJobs .. BitgenJobs count executed jobs per stage.
	SynthJobs  int
	PlanJobs   int
	ImplJobs   int
	BitgenJobs int
	// Cancelled counts jobs dropped because a dependency failed or the
	// context was cancelled before they were dispatched.
	Cancelled int
	// Skipped counts jobs the stage-artifact cache settled while the
	// graph was built: their cached result was reused without running,
	// so they appear in neither the per-stage executed counts nor
	// SimMinutes. Executed + Skipped + Cancelled always sums to the graph
	// size.
	Skipped int
	// SkippedByStage breaks Skipped down per stage (nil when nothing was
	// skipped).
	SkippedByStage map[Stage]int
	// StageCacheMisses counts keyed jobs whose artifact the stage cache
	// did not hold when the graph was built, so they were added to run.
	// Unkeyed jobs (synthesis, which the checkpoint cache covers, and the
	// full image's chunks) contribute to neither this nor Skipped.
	StageCacheMisses int
	// Retries counts re-runs of failed job attempts (a job that
	// succeeds on its third attempt contributes two).
	Retries int
	// FailedJobs counts jobs whose final attempt still failed.
	FailedJobs int
	// CacheHits and CacheMisses report the synthesis-checkpoint cache
	// (zero when no cache is attached).
	CacheHits   int
	CacheMisses int
	// SimMinutes is the summed simulated duration of all executed jobs,
	// including the virtual backoff charged to retries.
	SimMinutes vivado.Minutes
}

// Executed returns the total number of jobs that ran.
func (s JobStats) Executed() int {
	return s.SynthJobs + s.PlanJobs + s.ImplJobs + s.BitgenJobs
}

func (s *JobStats) count(st Stage) {
	switch st {
	case StageSynth:
		s.SynthJobs++
	case StagePlan:
		s.PlanJobs++
	case StageImpl:
		s.ImplJobs++
	case StageBitgen:
		s.BitgenJobs++
	}
}

// JobError records one job's final failure after retries were
// exhausted. The flow's collect error policy surfaces the full sorted
// list instead of aborting on the first.
type JobError struct {
	// ID and Stage identify the failed job.
	ID    string
	Stage Stage
	// Attempts is how many times the job ran (1 = no retries).
	Attempts int
	// Err is the final attempt's error.
	Err error

	order int
}

// Error implements error.
func (e JobError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("%s (after %d attempts): %v", e.ID, e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.ID, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e JobError) Unwrap() error { return e.Err }

// retryBackoff is the virtual-time penalty charged to a job's first
// retry; it doubles per subsequent attempt up to backoffCap. Fifteen
// modelled minutes approximates a license-server reconnect plus tool
// restart.
const (
	retryBackoff = vivado.Minutes(15)
	backoffCap   = vivado.Minutes(120)
)

// jobDone carries one completion from a worker to the coordinator.
type jobDone struct {
	h        int
	runtime  vivado.Minutes
	attempts int
	err      error
}

// jobState tracks one job through an execution.
type jobState uint8

const (
	waiting   jobState = iota // not yet dispatched
	finished                  // ran (successfully or not) or settled
	cancelled                 // dropped: a dependency failed or the run stopped
)

// execute runs the graph on a pool of opt.Workers goroutines. Every job
// runs after all its unsettled dependencies succeeded; a failed job
// (after opt.MaxJobRetries retries) cancels its transitive dependents.
// Under the FailFast policy no new job is dispatched after the first
// failure (in-flight jobs still drain); Collect keeps independent
// subgraphs running so partial results survive. Job failures are
// returned as a list sorted by graph-insertion order — the same order a
// sequential execution would have surfaced them — so the outcome does
// not depend on goroutine scheduling.
//
// Settled jobs are booked once each, in insertion order, before the
// first dispatch: Skipped and SkippedByStage, flow_stage_cache_hits,
// one stage-skip trace instant and one heartbeat. opt.Heartbeat fires
// from the coordinator goroutine once per job that was settled or
// succeeded, never for a failed one. opt.Observer records job spans,
// retry instants, worker occupancy and per-stage runtime histograms;
// nothing observed feeds back into scheduling, so results stay
// byte-identical with or without it.
//
// The returned error is reserved for execution-level problems: an
// invalid worker or retry count, or a cancelled/expired context. On
// cancellation the scheduler stops dispatching, drains every in-flight
// job, and shuts the pool down — no goroutine outlives the call.
func (g *graph) execute(ctx context.Context, opt Options) (JobStats, []JobError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers, err := NormalizeWorkers(opt.Workers)
	if err != nil {
		return JobStats{}, nil, err
	}
	n := len(g.jobs)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if opt.MaxJobRetries < 0 {
		return JobStats{}, nil, fmt.Errorf("flow: negative retry count %d", opt.MaxJobRetries)
	}
	stats := JobStats{Workers: workers}
	if n == 0 {
		return stats, nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return stats, nil, fmt.Errorf("flow: execution cancelled before any job ran: %w", err)
	}

	// A settled dependency is already complete, so it adds no edge.
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for h := range g.jobs {
		for _, dep := range g.jobs[h].deps {
			if !g.jobs[dep].settled {
				indeg[h]++
				dependents[dep] = append(dependents[dep], h)
			}
		}
	}

	// Resolved once: with a nil Observer every instrument below is nil
	// and each probe costs one nil check.
	reg := opt.Observer.Metrics()
	tr := opt.Observer.Tracer()
	busy := reg.Gauge("flow_workers_busy")
	jobsTotal := reg.Counter("flow_jobs_total")
	jobsFailed := reg.Counter("flow_jobs_failed_total")
	jobsCancelled := reg.Counter("flow_jobs_cancelled_total")
	jobRetries := reg.Counter("flow_job_retries_total")
	stageCacheHits := reg.Counter("flow_stage_cache_hits")
	stageCacheMisses := reg.Counter("flow_stage_cache_misses")
	stageMinutes := map[Stage]*obs.Histogram{
		StageSynth:  reg.Histogram("flow_stage_minutes_synth"),
		StagePlan:   reg.Histogram("flow_stage_minutes_plan"),
		StageImpl:   reg.Histogram("flow_stage_minutes_impl"),
		StageBitgen: reg.Histogram("flow_stage_minutes_bitgen"),
	}
	if tr != nil {
		for w := 0; w < workers; w++ {
			tr.SetThreadName(w, fmt.Sprintf("worker-%d", w))
		}
	}

	// Buffers sized to the job count: dispatch and completion never
	// block, so the coordinator cannot deadlock against the pool and a
	// cancelled coordinator can always drain in-flight results.
	work := make(chan int, n)
	results := make(chan jobDone, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for h := range work {
				busy.Add(1)
				j := &g.jobs[h]
				start := tr.Now()
				d := runWithRetry(ctx, h, j, opt.MaxJobRetries, tr, tid)
				if tr != nil {
					args := map[string]any{
						"job":         j.id,
						"stage":       j.stage.String(),
						"sim_minutes": float64(d.runtime),
						"attempts":    d.attempts,
					}
					if d.err != nil {
						args["error"] = d.err.Error()
					}
					tr.Complete("job", j.id, tid, start, tr.Now()-start, args)
				}
				busy.Add(-1)
				results <- d
			}
		}(w)
	}

	state := make([]jobState, n)
	var failures []JobError
	pending := n
	running := 0

	dispatch := func(h int) {
		running++
		work <- h
	}
	// cancelJob removes h and its transitive dependents from the pending
	// set; none of them has been dispatched (they still wait on the
	// failed dependency).
	var cancelJob func(h int)
	cancelJob = func(h int) {
		if state[h] == cancelled {
			return
		}
		state[h] = cancelled
		stats.Cancelled++
		jobsCancelled.Inc()
		pending--
		for _, dep := range dependents[h] {
			cancelJob(dep)
		}
	}
	// beat feeds opt.Heartbeat; it runs on the coordinator, serially, so
	// its accumulators need no synchronization.
	beats := 0
	var virtual vivado.Minutes
	beat := func(m vivado.Minutes) {
		if opt.Heartbeat == nil {
			return
		}
		beats++
		virtual += m
		opt.Heartbeat(beats, virtual)
	}

	// A settled job is reuse, not execution: it stays out of the
	// per-stage executed counts, SimMinutes and flow_jobs_total so every
	// executed-jobs invariant (job span counts) holds; only the skip-side
	// books move. Its instant goes on the first worker's lane.
	stats.StageCacheMisses = g.stageMisses
	stageCacheMisses.Add(int64(g.stageMisses))
	for h := range g.jobs {
		j := &g.jobs[h]
		if !j.settled {
			continue
		}
		state[h] = finished
		pending--
		stats.Skipped++
		if stats.SkippedByStage == nil {
			stats.SkippedByStage = make(map[Stage]int)
		}
		stats.SkippedByStage[j.stage]++
		stageCacheHits.Inc()
		if tr != nil {
			tr.Instant("stage-skip", j.id, 0, map[string]any{
				"job":         j.id,
				"stage":       j.stage.String(),
				"sim_minutes": float64(j.minutes),
			})
		}
		beat(j.minutes)
	}

	account := func(d jobDone) {
		st := g.jobs[d.h].stage
		stats.count(st)
		stats.SimMinutes += d.runtime
		stats.Retries += d.attempts - 1
		jobsTotal.Inc()
		jobRetries.Add(int64(d.attempts - 1))
		stageMinutes[st].Observe(float64(d.runtime))
		if d.err != nil {
			stats.FailedJobs++
			jobsFailed.Inc()
			return
		}
		beat(d.runtime)
	}
	// handle books one completion; when release is set a success frees
	// its dependents for dispatch (a draining coordinator passes false).
	handle := func(d jobDone, release bool) {
		running--
		pending--
		state[d.h] = finished
		account(d)
		if d.err != nil {
			j := &g.jobs[d.h]
			failures = append(failures, JobError{
				ID: j.id, Stage: j.stage, Attempts: d.attempts, Err: d.err, order: d.h,
			})
			for _, dep := range dependents[d.h] {
				cancelJob(dep)
			}
			return
		}
		if !release {
			return
		}
		for _, dep := range dependents[d.h] {
			if state[dep] == cancelled {
				continue
			}
			indeg[dep]--
			if indeg[dep] == 0 {
				dispatch(dep)
			}
		}
	}

	// A heartbeat may have cancelled the run while settled jobs were
	// booked.
	aborted := ctx.Err() != nil // context cancelled
	stopped := false            // fail-fast stop after a job failure
	if !aborted {
		for h := range g.jobs {
			if state[h] == waiting && indeg[h] == 0 {
				dispatch(h)
			}
		}
	}
	// The graph is acyclic and every job waits only on earlier ones, so
	// while jobs are pending at least one of them is running.
	for pending > 0 && !aborted && !stopped {
		select {
		case <-ctx.Done():
			aborted = true
		case d := <-results:
			handle(d, true)
			// A cancellation that landed before this completion was
			// handled — from the heartbeat, say — decides the outcome:
			// a job whose retry it cut short must not surface as the
			// run's failure.
			switch {
			case ctx.Err() != nil:
				aborted = true
			case len(failures) > 0 && opt.ErrorPolicy == FailFast:
				stopped = true
			}
		}
	}
	// Drain every in-flight job before tearing the pool down: results is
	// buffered, so workers can never block, and jobs observe ctx
	// themselves and return promptly after a cancellation.
	for running > 0 {
		handle(<-results, false)
	}
	close(work)
	wg.Wait()

	if aborted || stopped {
		// Never-dispatched jobs count as cancelled so Executed + Skipped
		// + Cancelled always sums to the graph size.
		for h := range state {
			if state[h] == waiting {
				state[h] = cancelled
				stats.Cancelled++
				jobsCancelled.Inc()
			}
		}
	}
	if aborted {
		return stats, sortJobErrors(failures), fmt.Errorf("flow: execution cancelled: %w", ctx.Err())
	}
	return stats, sortJobErrors(failures), nil
}

// runWithRetry executes job j (handle h) up to 1+maxRetries times,
// charging the doubling virtual backoff to each retry. Context errors
// stop the attempt loop immediately: retrying a cancelled flow is
// pointless. Each retry emits a trace instant on the worker's lane (tr
// may be nil).
func runWithRetry(ctx context.Context, h int, j *job, maxRetries int, tr *obs.Tracer, tid int) jobDone {
	var total vivado.Minutes
	backoff := retryBackoff
	attempts := 0
	for {
		attempts++
		t, err := j.run(ctx)
		total += t
		if err == nil {
			return jobDone{h: h, runtime: total, attempts: attempts}
		}
		if attempts > maxRetries || !retryable(err) || ctx.Err() != nil {
			return jobDone{h: h, runtime: total, attempts: attempts, err: err}
		}
		if tr != nil {
			tr.Instant("retry", j.id, tid, map[string]any{
				"attempt":         attempts,
				"backoff_minutes": float64(backoff),
				"error":           err.Error(),
			})
		}
		total += backoff
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// retryable reports whether a failed attempt is worth re-running:
// everything except cancellation.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// sortJobErrors orders failures by graph-insertion order — the
// deterministic, scheduling-independent error priority.
func sortJobErrors(errs []JobError) []JobError {
	sort.Slice(errs, func(i, j int) bool { return errs[i].order < errs[j].order })
	return errs
}
