package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"presp/internal/core"
	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// Spec is the client-facing description of one flow job — the JSON body
// of POST /v1/jobs. Everything a run depends on is in the spec; the
// per-run scheduler width and the shared checkpoint cache belong to the
// server, so a tenant cannot buy itself more CPU than the deployment
// grants.
type Spec struct {
	// Preset names a built-in SoC configuration (SOC_1..SOC_4,
	// SoC_A..SoC_D, SoC_X/Y/Z).
	Preset string `json:"preset"`
	// Flow selects the flow to run: "presp" (default), "standard-dfx"
	// or "monolithic".
	Flow string `json:"flow,omitempty"`
	// Strategy forces an implementation strategy ("serial", "semi",
	// "fully"); empty lets the size-driven chooser decide.
	Strategy string `json:"strategy,omitempty"`
	// Tau is the semi-parallel degree (0 = default).
	Tau int `json:"tau,omitempty"`
	// Compress enables bitstream compression.
	Compress bool `json:"compress,omitempty"`
	// SkipBitstreams stops after P&R.
	SkipBitstreams bool `json:"skip_bitstreams,omitempty"`
	// Retries re-runs failed jobs with capped virtual-time backoff.
	Retries int `json:"retries,omitempty"`
	// ErrorPolicy is "fail-fast" (default) or "collect".
	ErrorPolicy string `json:"error_policy,omitempty"`
	// Faults injects seeded CAD faults (faultinject plan syntax).
	Faults string `json:"faults,omitempty"`
}

// compiledSpec is a validated spec plus everything derived from it at
// admission time: the elaborated design, the forced strategy (if any),
// the parsed fault plan and the single-flight key.
type compiledSpec struct {
	spec     Spec
	design   *socgen.Design
	strategy *core.Strategy
	faults   *faultinject.Plan
	key      string
}

// compile validates and normalizes a spec, elaborates its design and
// computes the single-flight key. Every rejection here becomes an HTTP
// 400 before the job touches the queue.
func compile(spec Spec) (*compiledSpec, error) {
	if spec.Preset == "" {
		return nil, fmt.Errorf("spec: preset is required (one of %v)", experiments.PresetNames())
	}
	cfg, err := experiments.PresetConfig(spec.Preset)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	d, err := experiments.ElaborateConfig(cfg)
	if err != nil {
		return nil, fmt.Errorf("spec: elaborating %s: %w", spec.Preset, err)
	}
	if spec.Flow == "" {
		spec.Flow = "presp"
	}
	switch spec.Flow {
	case "presp", "standard-dfx", "monolithic":
	default:
		return nil, fmt.Errorf("spec: unknown flow %q (want one of %v)", spec.Flow, flow.FlowNames())
	}
	if spec.Retries < 0 {
		return nil, fmt.Errorf("spec: retries must be >= 0, got %d", spec.Retries)
	}
	if spec.Tau < 0 {
		return nil, fmt.Errorf("spec: tau must be >= 0, got %d", spec.Tau)
	}
	if spec.ErrorPolicy == "" {
		spec.ErrorPolicy = "fail-fast"
	}
	switch spec.ErrorPolicy {
	case "fail-fast", "collect":
	default:
		return nil, fmt.Errorf("spec: unknown error policy %q (want fail-fast or collect)", spec.ErrorPolicy)
	}
	cs := &compiledSpec{spec: spec, design: d}
	if spec.Strategy != "" {
		kind, err := core.ParseStrategyKind(spec.Strategy)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		tau := spec.Tau
		if tau == 0 {
			tau = core.DefaultSemiTau
		}
		if len(d.RPs) > 0 {
			s, err := core.ForceStrategy(d, kind, tau)
			if err != nil {
				return nil, fmt.Errorf("spec: %w", err)
			}
			cs.strategy = s
		}
	} else if spec.Flow == "presp" && spec.Tau != 0 {
		// The size-driven chooser reads tau too: reject a degree the
		// flow would fail on, with the forced strategy's error.
		if _, err := core.ChooseWithTau(d, spec.Tau); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	if spec.Faults != "" {
		plan, err := faultinject.ParsePlan(spec.Faults)
		if err == nil {
			err = plan.ForFlow()
		}
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		cs.faults = plan
	}
	cs.key = specKey(cs)
	return cs, nil
}

// specKey is the single-flight identity of a compiled spec. It rides on
// the same content-address machinery as the synthesis-checkpoint cache:
// the design digest (device identity and capacity, module hierarchy and
// resource envelopes) extended with every run option that can change
// the result. Two submissions with equal keys are guaranteed to produce
// byte-identical results, so the service runs the flow once and shares
// it.
func specKey(cs *compiledSpec) string {
	h := vivado.NewDigest()
	h.Str(flow.DesignDigest(cs.design))
	h.Str(cs.spec.Flow)
	h.Str(cs.spec.Strategy)
	h.U64(uint64(cs.spec.Tau))
	if cs.spec.Compress {
		h.Str("compress")
	}
	if cs.spec.SkipBitstreams {
		h.Str("skip-bitstreams")
	}
	h.U64(uint64(cs.spec.Retries))
	h.Str(cs.spec.ErrorPolicy)
	h.Str(cs.spec.Faults)
	return h.Sum()
}

// JobState is a job's lifecycle state.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the job's flight group.
	StateRunning JobState = "running"
	// StateSucceeded: the flow completed; Result is populated.
	StateSucceeded JobState = "succeeded"
	// StateFailed: the flow returned an error; Error is populated.
	StateFailed JobState = "failed"
	// StateCancelled: the client cancelled the job before completion.
	StateCancelled JobState = "cancelled"
	// StateRejected: the server drained before the job was admitted to
	// a worker.
	StateRejected JobState = "rejected"
	// StatePoisoned: the job stalled past its watchdog requeue budget
	// and was quarantined — it will not run again.
	StatePoisoned JobState = "poisoned"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCancelled, StateRejected, StatePoisoned:
		return true
	}
	return false
}

// Job is one tenant submission. All fields are guarded by the server
// mutex; handlers read consistent snapshots via View.
type Job struct {
	ID        string
	Tenant    string
	Spec      Spec
	State     JobState
	Err       string
	Dedup     bool
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Result    *ResultView

	// Key is the spec's single-flight content address; it is what the
	// WAL records and what an idempotent resubmission is checked
	// against.
	Key string
	// IdemKey is the client's Idempotency-Key, if any.
	IdemKey string
	// Attempts counts watchdog requeues: 0 for a job that ran once.
	Attempts int
	// Recovered marks a job re-created from the WAL after a crash.
	Recovered bool

	group *group
}

// ResultView is the JSON summary of a completed flow run: the modelled
// wall times and the scheduler's execution counters.
// Everything in it is deterministic for a given spec, which is what
// makes the golden-file API tests and the single-flight result-equality
// guarantee possible.
type ResultView struct {
	Flow          string  `json:"flow"`
	Strategy      string  `json:"strategy"`
	Tau           int     `json:"tau"`
	SynthWallMin  float64 `json:"synth_wall_min"`
	PRWallMin     float64 `json:"pr_wall_min"`
	BitgenWallMin float64 `json:"bitgen_wall_min"`
	TotalMin      float64 `json:"total_min"`
	JobsExecuted  int     `json:"jobs_executed"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
	// JobsSkipped counts stage jobs satisfied from the stage-artifact
	// cache instead of executing; SkippedByStage breaks the count down
	// per stage and StageCacheMisses counts probes that found nothing.
	// A resubmitted spec that edits one kernel shows exactly the edited
	// partition's impl+bitgen jobs here as misses, everything else as
	// skips. Absent on cold runs.
	JobsSkipped      int            `json:"jobs_skipped,omitempty"`
	SkippedByStage   map[string]int `json:"skipped_by_stage,omitempty"`
	StageCacheMisses int            `json:"stage_cache_misses,omitempty"`
	Retries          int            `json:"retries,omitempty"`
	Partial          bool           `json:"partial,omitempty"`
	Partitions       int            `json:"partitions"`
	// JournalEntries is retired and never set. WAL replay decodes with
	// DisallowUnknownFields, and every succeeded "done" record written
	// before the flow audit journal was removed carries this field;
	// dropping it would end replay at the first such record and
	// truncate the rest of the log.
	JournalEntries int `json:"journal_entries,omitempty"`
	// BitstreamCRCs fingerprints every generated image as
	// "name:crc32" (IEEE, hex), sorted by name. Deterministic for a
	// given spec, so a client — or the restart smoke test — can assert
	// two runs produced byte-identical bitstreams without downloading
	// them. Absent when the run skipped bitstream generation.
	BitstreamCRCs []string `json:"bitstream_crcs,omitempty"`
}

// summarizeResult converts a flow result to its wire form.
func summarizeResult(spec Spec, res *flow.Result) *ResultView {
	rv := &ResultView{
		Flow:             spec.Flow,
		SynthWallMin:     float64(res.SynthWall),
		PRWallMin:        float64(res.PRWall),
		BitgenWallMin:    float64(res.BitgenWall),
		TotalMin:         float64(res.Total),
		JobsExecuted:     res.Jobs.Executed(),
		CacheHits:        res.Jobs.CacheHits,
		CacheMisses:      res.Jobs.CacheMisses,
		JobsSkipped:      res.Jobs.Skipped,
		StageCacheMisses: res.Jobs.StageCacheMisses,
		Retries:          res.Jobs.Retries,
		Partial:          res.Partial,
	}
	if len(res.Jobs.SkippedByStage) > 0 {
		rv.SkippedByStage = make(map[string]int, len(res.Jobs.SkippedByStage))
		for st, n := range res.Jobs.SkippedByStage {
			rv.SkippedByStage[st.String()] = n
		}
	}
	if res.Strategy != nil {
		rv.Strategy = res.Strategy.Kind.String()
		rv.Tau = res.Strategy.Tau
	}
	if res.Design != nil {
		rv.Partitions = len(res.Design.RPs)
	}
	if res.FullBitstream != nil {
		rv.BitstreamCRCs = append(rv.BitstreamCRCs,
			fmt.Sprintf("%s:%08x", res.FullBitstream.Name, res.FullBitstream.Checksum))
	}
	for _, bs := range res.PartialBitstreams {
		if bs == nil {
			continue
		}
		rv.BitstreamCRCs = append(rv.BitstreamCRCs, fmt.Sprintf("%s:%08x", bs.Name, bs.Checksum))
	}
	sort.Strings(rv.BitstreamCRCs)
	return rv
}

// JobView is the wire form of a job.
type JobView struct {
	ID           string   `json:"id"`
	Tenant       string   `json:"tenant"`
	State        JobState `json:"state"`
	Spec         Spec     `json:"spec"`
	Deduplicated bool     `json:"deduplicated,omitempty"`
	// IdempotencyKey echoes the client's Idempotency-Key header.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Recovered marks a job replayed from the WAL after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Attempts counts watchdog requeues (absent for first-try jobs).
	Attempts    int         `json:"attempts,omitempty"`
	SubmittedAt string      `json:"submitted_at,omitempty"`
	StartedAt   string      `json:"started_at,omitempty"`
	FinishedAt  string      `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *ResultView `json:"result,omitempty"`
}

// viewLocked snapshots a job. Callers hold the server mutex.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:             j.ID,
		Tenant:         j.Tenant,
		State:          j.State,
		Spec:           j.Spec,
		Deduplicated:   j.Dedup,
		IdempotencyKey: j.IdemKey,
		Recovered:      j.Recovered,
		Attempts:       j.Attempts,
		Error:          j.Err,
		Result:         j.Result,
	}
	fmtT := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.SubmittedAt = fmtT(j.Submitted)
	v.StartedAt = fmtT(j.Started)
	v.FinishedAt = fmtT(j.Finished)
	return v
}

// Typed admission errors; the HTTP layer maps them to status codes.
var (
	// ErrDraining rejects submissions while the server shuts down (503).
	ErrDraining = errors.New("server draining")
	// ErrNotFound reports an unknown job ID — or one owned by another
	// tenant, indistinguishable by design (404).
	ErrNotFound = errors.New("job not found")
	// ErrFinished reports a cancel of a job that already reached a
	// non-cancelled terminal state (409) — distinct from an unknown ID,
	// so clients can tell a lost race from a typo. Re-cancelling an
	// already-cancelled job stays an idempotent no-op.
	ErrFinished = errors.New("job already finished")
)

// CircuitOpenError sheds a submission whose (tenant, spec) circuit
// breaker is open after repeated failures (503 + Retry-After).
type CircuitOpenError struct {
	// Failures is the consecutive-failure count that opened the circuit.
	Failures int
	// RetryAfter is how long until the breaker half-opens.
	RetryAfter time.Duration
}

// Error implements error.
func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("circuit open after %d consecutive failures; retry in %s",
		e.Failures, e.RetryAfter.Round(time.Second))
}

// IdempotencyMismatchError rejects a submission that reuses an
// Idempotency-Key with a different spec (409): replaying the existing
// job would silently hand the client a result for work it did not ask
// for.
type IdempotencyMismatchError struct {
	// Key is the reused idempotency key.
	Key string
	// JobID is the job that owns the key.
	JobID string
}

// Error implements error.
func (e *IdempotencyMismatchError) Error() string {
	return fmt.Sprintf("idempotency key %q was already used by job %s with a different spec", e.Key, e.JobID)
}

// QueueFullError rejects a submission when the admission queue is at
// capacity (429 + Retry-After).
type QueueFullError struct {
	// Depth is the configured queue bound that was hit.
	Depth int
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("admission queue full (%d queued); retry later", e.Depth)
}

// BadSpecError rejects an invalid submission (400).
type BadSpecError struct{ Reason error }

// Error implements error.
func (e *BadSpecError) Error() string { return e.Reason.Error() }

// Unwrap exposes the underlying validation error.
func (e *BadSpecError) Unwrap() error { return e.Reason }
