package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"presp/internal/core"
	"presp/internal/experiments"
	"presp/internal/flow"
)

// TestServedMatchesDirect is the differential leg between the service
// and the flow engine it wraps. Over seeded random specs (preset, flow,
// strategy, τ, compression), a served job — compiled against the
// preset's shared design and run through the server's checkpoint and
// stage caches, cold and then warm — must report the bitstream CRCs and
// total modelled minutes of a direct RunFlow on a freshly elaborated
// design with no caches. A spec the service rejects must fail directly
// too.
func TestServedMatchesDirect(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, JobWorkers: 2})
	rng := rand.New(rand.NewSource(31))
	presets := experiments.PresetNames()
	strategies := []string{"", "serial", "semi", "fully"}
	accepted := 0
	for i := 0; i < 24; i++ {
		spec := Spec{
			Preset:   presets[rng.Intn(len(presets))],
			Flow:     flow.FlowNames()[rng.Intn(len(flow.FlowNames()))],
			Strategy: strategies[rng.Intn(len(strategies))],
			Tau:      rng.Intn(5),
			Compress: rng.Intn(2) == 1,
		}
		want, directErr := runDirect(spec)
		v, err := s.Submit("default", spec)
		if err != nil {
			if directErr == nil {
				t.Fatalf("%+v: served rejected (%v), direct ran", spec, err)
			}
			continue
		}
		if directErr != nil {
			t.Fatalf("%+v: direct failed (%v), served accepted", spec, directErr)
		}
		accepted++
		cold := waitState(t, s, "default", v.ID, StateSucceeded).Result
		warm := runJob(t, s, spec)
		for _, got := range []*ResultView{cold, warm} {
			if !reflect.DeepEqual(got.BitstreamCRCs, want.BitstreamCRCs) || got.TotalMin != want.TotalMin {
				t.Fatalf("%+v: served (%v, %v min) != direct (%v, %v min)",
					spec, got.BitstreamCRCs, got.TotalMin, want.BitstreamCRCs, want.TotalMin)
			}
		}
	}
	t.Logf("%d of 24 random specs accepted and compared", accepted)
	if accepted < 12 {
		t.Fatalf("only %d of 24 random specs were accepted; the leg compares too little", accepted)
	}
}

// runDirect runs spec straight through the flow engine on a fresh
// elaboration of its preset, with no caches, and summarizes the result
// as the service would.
func runDirect(spec Spec) (*ResultView, error) {
	cfg, err := experiments.PresetConfig(spec.Preset)
	if err != nil {
		return nil, err
	}
	d, err := experiments.ElaborateConfig(cfg)
	if err != nil {
		return nil, err
	}
	opt := flow.Options{SemiTau: spec.Tau, Compress: spec.Compress, Workers: 1}
	if spec.Strategy != "" {
		kind, err := core.ParseStrategyKind(spec.Strategy)
		if err != nil {
			return nil, err
		}
		tau := spec.Tau
		if tau == 0 {
			tau = core.DefaultSemiTau
		}
		if opt.Strategy, err = core.ForceStrategy(d, kind, tau); err != nil {
			return nil, err
		}
	}
	res, err := flow.RunFlow(context.Background(), spec.Flow, d, opt)
	if err != nil {
		return nil, fmt.Errorf("direct %s: %w", spec.Flow, err)
	}
	return summarizeResult(spec, res), nil
}
