package experiments

import (
	"context"
	"fmt"

	"presp/internal/core"
	"presp/internal/flow"
	"presp/internal/report"
)

// Table5SoC compares the full PR-ESP implementation (synthesis + P&R)
// against the monolithic single-instance baseline for one WAMI SoC.
type Table5SoC struct {
	Name string
	// PR-ESP side.
	Synth    float64
	TStatic  float64
	MaxOmega float64
	Total    float64
	Tau      int
	Strategy core.StrategyKind
	// Monolithic side.
	MonoSynth float64
	MonoPR    float64
	MonoTotal float64
}

// Improvement returns the fractional total-time gain of PR-ESP over the
// monolithic baseline (positive = PR-ESP faster).
func (s *Table5SoC) Improvement() float64 {
	if s.MonoTotal == 0 {
		return 0
	}
	return (s.MonoTotal - s.Total) / s.MonoTotal
}

// Table5Result reproduces the flow comparison (Table V).
type Table5Result struct {
	SoCs []Table5SoC
}

// Table5 runs both flows end to end on SoC_A..SoC_D, letting the
// size-driven chooser pick the PR-ESP strategy.
func Table5() (*Table5Result, error) {
	cfgs, err := flowSoCs()
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for _, cfg := range cfgs {
		name := cfg.Name
		d, err := elaborate(cfg)
		if err != nil {
			return nil, err
		}
		pr, err := flow.RunPRESP(context.Background(), d, flow.Options{SkipBitstreams: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: PR-ESP flow on %s: %w", name, err)
		}
		mono, err := flow.RunMonolithic(context.Background(), d, flow.Options{SkipBitstreams: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: monolithic flow on %s: %w", name, err)
		}
		res.SoCs = append(res.SoCs, Table5SoC{
			Name:      name,
			Synth:     float64(pr.SynthWall),
			TStatic:   float64(pr.TStatic),
			MaxOmega:  float64(pr.MaxOmega),
			Total:     float64(pr.Total),
			Tau:       pr.Strategy.Tau,
			Strategy:  pr.Strategy.Kind,
			MonoSynth: float64(mono.SynthWall),
			MonoPR:    float64(mono.PRWall),
			MonoTotal: float64(mono.Total),
		})
	}
	return res, nil
}

// SoC returns the named SoC's comparison.
func (r *Table5Result) SoC(name string) (*Table5SoC, error) {
	for i := range r.SoCs {
		if r.SoCs[i].Name == name {
			return &r.SoCs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: Table V has no SoC %q", name)
}

// Render builds the Table V layout.
func (r *Table5Result) Render() *report.Table {
	t := report.New("Table V — PR-ESP vs monolithic compile time (modelled minutes)",
		"SoC", "synth", "t_static", "maxΩ", "T_tot", "τ/strategy",
		"mono synth", "mono P&R", "mono T_tot", "gain")
	for _, s := range r.SoCs {
		omega := "-"
		tstatic := "-"
		if s.Strategy != core.Serial {
			omega = report.Minutes(s.MaxOmega)
			tstatic = report.Minutes(s.TStatic)
		}
		t.AddRow(s.Name,
			report.Minutes(s.Synth),
			tstatic,
			omega,
			report.Minutes(s.Total),
			fmt.Sprintf("%d %s", s.Tau, s.Strategy),
			report.Minutes(s.MonoSynth),
			report.Minutes(s.MonoPR),
			report.Minutes(s.MonoTotal),
			report.Pct(s.Improvement()))
	}
	return t
}
