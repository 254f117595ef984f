package experiments

import (
	"context"
	"fmt"

	"presp/internal/core"
	"presp/internal/flow"
	"presp/internal/report"
	"presp/internal/wami"
)

// Table4SoC is the P&R parallelism evaluation of one WAMI flow SoC.
type Table4SoC struct {
	Name string
	// Accs lists the hosted accelerator indices (Fig 3 numbering).
	Accs []int
	// Metrics carries κ, α_av, γ.
	Metrics core.Metrics
	// Class is the taxonomy class.
	Class core.Class
	// Chosen is the strategy PR-ESP's size-driven algorithm selects.
	Chosen core.StrategyKind
	// FullyPar, SemiPar and Serial are the P&R times (minutes) under
	// each strategy; TStaticFull/Semi and OmegaFull/Semi expose the
	// components.
	TStatic   float64
	OmegaFull float64
	FullyPar  float64
	OmegaSemi float64
	SemiPar   float64
	Serial    float64
}

// TimeFor returns the P&R time under the given strategy kind.
func (s *Table4SoC) TimeFor(k core.StrategyKind) float64 {
	switch k {
	case core.FullyParallel:
		return s.FullyPar
	case core.SemiParallel:
		return s.SemiPar
	default:
		return s.Serial
	}
}

// Table4Result reproduces the P&R parallelism evaluation (Table IV).
type Table4Result struct {
	SoCs []Table4SoC
}

// Table4 evaluates SoC_A..SoC_D under all three strategies (semi-parallel
// at τ=2, as the paper fixes it) and records the chooser's pick.
func Table4() (*Table4Result, error) {
	cfgs, err := flowSoCs()
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, cfg := range cfgs {
		name := cfg.Name
		d, err := elaborate(cfg)
		if err != nil {
			return nil, err
		}
		m, err := core.ComputeMetrics(d)
		if err != nil {
			return nil, err
		}
		cls, err := core.Classify(m)
		if err != nil {
			return nil, err
		}
		chosen, err := core.Choose(d)
		if err != nil {
			return nil, err
		}
		row := Table4SoC{Name: name, Metrics: m, Class: cls, Chosen: chosen.Kind}
		for _, idx := range allocOf(name) {
			row.Accs = append(row.Accs, idx)
		}
		// Fully parallel.
		strat, err := core.ForceStrategy(d, core.FullyParallel, len(d.RPs))
		if err != nil {
			return nil, err
		}
		r, err := flow.RunPRESP(context.Background(), d, flow.Options{Strategy: strat, SkipBitstreams: true})
		if err != nil {
			return nil, err
		}
		row.TStatic = float64(r.TStatic)
		row.OmegaFull = float64(r.MaxOmega)
		row.FullyPar = float64(r.PRWall)
		// Semi-parallel, τ=2.
		strat, err = core.ForceStrategy(d, core.SemiParallel, core.DefaultSemiTau)
		if err != nil {
			return nil, err
		}
		r, err = flow.RunPRESP(context.Background(), d, flow.Options{Strategy: strat, SkipBitstreams: true})
		if err != nil {
			return nil, err
		}
		row.OmegaSemi = float64(r.MaxOmega)
		row.SemiPar = float64(r.PRWall)
		// Serial.
		strat, err = core.ForceStrategy(d, core.Serial, 1)
		if err != nil {
			return nil, err
		}
		r, err = flow.RunPRESP(context.Background(), d, flow.Options{Strategy: strat, SkipBitstreams: true})
		if err != nil {
			return nil, err
		}
		row.Serial = float64(r.PRWall)
		res.SoCs = append(res.SoCs, row)
	}
	return res, nil
}

// allocOf returns the accelerator index set of a Table IV SoC.
func allocOf(name string) []int {
	switch name {
	case "SoC_A":
		return []int{wami.KWarpImg, wami.KSDUpdate, wami.KMult, wami.KMatrixInvert}
	case "SoC_B":
		return []int{wami.KGrayscale, wami.KGradient, wami.KReshapeAdd, wami.KDebayer}
	case "SoC_C":
		return []int{wami.KHessian, wami.KReshapeAdd, wami.KSDUpdate, wami.KGrayscale}
	case "SoC_D":
		return []int{wami.KWarpImg, wami.KSubtract, wami.KMatrixInvert, wami.KGrayscale}
	default:
		return nil
	}
}

// SoC returns the named SoC's evaluation.
func (r *Table4Result) SoC(name string) (*Table4SoC, error) {
	for i := range r.SoCs {
		if r.SoCs[i].Name == name {
			return &r.SoCs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: Table IV has no SoC %q", name)
}

// Render builds the Table IV layout; the chosen strategy's column is
// bolded as the paper does.
func (r *Table4Result) Render() *report.Table {
	t := report.New("Table IV — P&R parallelism evaluation on the WAMI SoCs (modelled minutes)",
		"SoC", "accs", "class", "α_av%", "κ%", "γ", "t_static", "fully-par", "semi-par", "serial", "chosen")
	for _, s := range r.SoCs {
		full := report.Minutes(s.FullyPar)
		semi := report.Minutes(s.SemiPar)
		serial := report.Minutes(s.Serial)
		switch s.Chosen {
		case core.FullyParallel:
			full = report.Bold(full)
		case core.SemiParallel:
			semi = report.Bold(semi)
		default:
			serial = report.Bold(serial)
		}
		t.AddRow(s.Name,
			fmt.Sprintf("%v", s.Accs),
			s.Class.String(),
			fmt.Sprintf("%.1f", s.Metrics.AlphaAv*100),
			fmt.Sprintf("%.1f", s.Metrics.Kappa*100),
			fmt.Sprintf("%.2f", s.Metrics.Gamma),
			report.Minutes(s.TStatic),
			full, semi, serial,
			s.Chosen.String())
	}
	return t
}
