package experiments

import (
	"presp/internal/core"
	"presp/internal/report"
)

// Table1Cell is one entry of the size-driven strategy matrix.
type Table1Cell struct {
	// KappaRegime is "κ≈α", "κ>>α" or "κ<<α".
	KappaRegime string
	// GammaRegime is "γ<1", "γ≈1" or "γ>1".
	GammaRegime string
	// Strategy is the chosen strategy, or "-" for impossible cells.
	Strategy string
	// Class is the taxonomy class driving the choice, when defined.
	Class string
}

// Table1Result reproduces Table I by sweeping synthetic designs across
// the (κ vs α_av, γ) plane and recording the strategy the chooser picks.
type Table1Result struct {
	Cells []Table1Cell
}

// syntheticMetrics builds a Metrics instance in the requested regime on
// a 303.6k-LUT device (VC707 scale).
func syntheticMetrics(kappaRegime, gammaRegime string) (core.Metrics, bool) {
	const tot = 303600
	var staticL, n, maxTile, reconfL int
	switch kappaRegime {
	case "κ>>α":
		// Large static part, each tile much smaller.
		staticL = 90000
		n = 6
		switch gammaRegime {
		case "γ<1":
			reconfL = 48000 // γ = 0.53
		case "γ≈1":
			reconfL = 91000 // γ = 1.01
		case "γ>1":
			reconfL = 150000 // γ = 1.67
		}
		maxTile = reconfL / n
	case "κ≈α":
		// A tile rivals the static part.
		staticL = 30000
		switch gammaRegime {
		case "γ<1":
			// Impossible: a tile at least the static size forces γ > 1.
			return core.Metrics{}, false
		case "γ≈1":
			// Only a single reconfigurable tile yields γ ≈ 1 here.
			n = 1
			reconfL = 31000
			maxTile = 31000
		case "γ>1":
			n = 3
			reconfL = 120000
			maxTile = 42000
		}
	case "κ<<α":
		// Every tile dwarfs the static part.
		staticL = 12000
		switch gammaRegime {
		case "γ<1":
			return core.Metrics{}, false
		case "γ≈1":
			n = 1
			reconfL = 12500
			maxTile = 12500
		case "γ>1":
			n = 2
			reconfL = 120000
			maxTile = 60000
		}
	}
	m := core.Metrics{
		N:           n,
		StaticLUTs:  staticL,
		ReconfLUTs:  reconfL,
		MaxTileLUTs: maxTile,
		DeviceLUTs:  tot,
	}
	m.Kappa = float64(staticL) / tot
	m.AlphaAv = float64(reconfL) / (float64(n) * tot)
	m.Gamma = float64(reconfL) / float64(staticL)
	return m, true
}

// Table1 regenerates the strategy decision matrix.
func Table1() (*Table1Result, error) {
	res := &Table1Result{}
	for _, kr := range []string{"κ≈α", "κ>>α", "κ<<α"} {
		for _, gr := range []string{"γ<1", "γ≈1", "γ>1"} {
			cell := Table1Cell{KappaRegime: kr, GammaRegime: gr}
			m, ok := syntheticMetrics(kr, gr)
			if !ok {
				cell.Strategy = "-"
				cell.Class = "-"
				res.Cells = append(res.Cells, cell)
				continue
			}
			cls, err := core.Classify(m)
			if err != nil {
				return nil, err
			}
			cell.Class = cls.String()
			cell.Strategy = cls.Strategy().String()
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Cell returns the strategy chosen for the given regimes.
func (r *Table1Result) Cell(kappaRegime, gammaRegime string) string {
	for _, c := range r.Cells {
		if c.KappaRegime == kappaRegime && c.GammaRegime == gammaRegime {
			return c.Strategy
		}
	}
	return ""
}

// Render builds the Table I layout.
func (r *Table1Result) Render() *report.Table {
	t := report.New("Table I — size-driven implementation strategies",
		"", "γ<1", "γ≈1", "γ>1")
	for _, kr := range []string{"κ≈α", "κ>>α", "κ<<α"} {
		t.AddRow(kr, r.Cell(kr, "γ<1"), r.Cell(kr, "γ≈1"), r.Cell(kr, "γ>1"))
	}
	return t
}
