package flow

import (
	"context"
	"sync"

	"presp/internal/core"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// Evaluator adapts the flow to core.CostEvaluator: it predicts a
// strategy's P&R wall time by running the timing-only flow (no
// bitstreams) under the platform's cost model.
//
// The evaluator keeps a synthesis-checkpoint cache across calls: probing
// several strategies for the same design re-synthesizes nothing after
// the first run — only the P&R jobs differ between strategies.
type Evaluator struct {
	// Model overrides the CAD cost model (nil = calibrated default).
	Model *vivado.CostModel
	// Workers bounds the scheduler worker pool per run (0 = GOMAXPROCS,
	// negative is rejected; see NormalizeWorkers).
	Workers int
	// Context, when non-nil, bounds every evaluation probe — the
	// core.CostEvaluator interface is fixed, so cancellation rides on
	// the struct.
	Context context.Context

	once  sync.Once
	cache *vivado.CheckpointCache
}

var _ core.CostEvaluator = (*Evaluator)(nil)

// Cache returns the evaluator's checkpoint cache, creating it on first
// use (also shared with any flow runs the caller wires it into).
func (e *Evaluator) Cache() *vivado.CheckpointCache {
	e.once.Do(func() { e.cache = vivado.NewCheckpointCache() })
	return e.cache
}

// EvaluateStrategy implements core.CostEvaluator.
func (e *Evaluator) EvaluateStrategy(d *socgen.Design, s *core.Strategy) (float64, error) {
	ctx := e.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := RunPRESP(ctx, d, Options{
		Model:          e.Model,
		Strategy:       s,
		SkipBitstreams: true,
		Workers:        e.Workers,
		Cache:          e.Cache(),
	})
	if err != nil {
		return 0, err
	}
	return float64(res.PRWall), nil
}
