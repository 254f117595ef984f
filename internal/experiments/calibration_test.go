package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"presp/internal/vivado"
)

// TestShippedModelFit pins how well the shipped cost model reproduces
// the paper's published runtimes: the mean absolute error over the 50
// cells of Tables III–V and the one ordering it violates (the paper has
// SoC_B's monolithic flow just faster than PR-ESP in serial mode). A
// change to the cost model or to how the flows compose it moves these
// numbers (TestCalibrationMatchesExperiments keeps the calibration on
// the flows' composition) and must update them, and the documents that
// quote them, together.
func TestShippedModelFit(t *testing.T) {
	c, err := NewCalibration()
	if err != nil {
		t.Fatal(err)
	}
	f := c.Evaluate(vivado.DefaultCostModel(), nil)
	if f.Cells != 50 {
		t.Errorf("cells = %d, want 50", f.Cells)
	}
	if math.Abs(f.MAE-0.126471) > 1e-6 {
		t.Errorf("MAE = %.7f, want 0.126471", f.MAE)
	}
	if want := []string{"TableV B mono < presp"}; !reflect.DeepEqual(f.Violated, want) {
		t.Errorf("violated orderings = %q, want %q", f.Violated, want)
	}
	if got, want := f.Summary(), "MAE 12.65% over 50 cells; violated orderings: 1"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestCalibrationMatchesExperiments: the calibration's analytic
// composition of the cost model (predict) is a twin of the flows, not a
// second opinion. For the shipped model, every one of the 50 published
// cells as predict computes it must equal the cell Table3, Table4 or
// Table5 produces by running the flows, so a change to how the flows
// book minutes cannot leave the fit silently stale.
func TestCalibrationMatchesExperiments(t *testing.T) {
	c, err := NewCalibration()
	if err != nil {
		t.Fatal(err)
	}
	m := vivado.DefaultCostModel()
	preds := make([][]float64, len(c.cases))
	for i, dc := range c.cases {
		preds[i] = predict(m, dc)
	}
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	// tableCell reads the cell "<SoC>.<key>" from the tables.
	tableCell := func(name string) (float64, error) {
		soc, key, _ := strings.Cut(name, ".")
		if s, err := t3.SoC(soc); err == nil {
			tau := 1 // serial
			switch {
			case key == "tstatic":
				tau = 2
			case strings.HasPrefix(key, "T"):
				if tau, err = strconv.Atoi(key[1:]); err != nil {
					return 0, err
				}
			case key != "serial":
				return 0, fmt.Errorf("no Table III quantity %q", key)
			}
			e, err := s.Entry(tau)
			if key == "tstatic" {
				return e.TStatic, err
			}
			return e.Total, err
		}
		s4, err := t4.SoC(soc)
		if err != nil {
			return 0, err
		}
		s5, err := t5.SoC(soc)
		if err != nil {
			return 0, err
		}
		cells := map[string]float64{
			"tstatic": s4.TStatic, "full": s4.FullyPar, "semi": s4.SemiPar, "serial": s4.Serial,
			"synthPR": s5.Synth, "synthMo": s5.MonoSynth, "monoPR": s5.MonoPR,
		}
		v, ok := cells[key]
		if !ok {
			return 0, fmt.Errorf("no Table IV/V quantity %q", key)
		}
		return v, nil
	}
	checked := 0
	for i, tg := range paperCells {
		want, err := tableCell(tg.name)
		if err != nil {
			t.Errorf("%s: unchecked: %v", tg.name, err)
			continue
		}
		if got := sumCells(c.cells[i], preds); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: calibration predicts %.12f min, the flows produce %.12f", tg.name, got, want)
		}
		checked++
	}
	if checked != 50 {
		t.Errorf("%d of %d targets checked against the tables, want all 50", checked, len(paperCells))
	}
}

// TestCalibrationRejectsUnknownCells: a cell name must name a known SoC
// and a quantity it has; T<τ> must lie in 2..partition count.
func TestCalibrationRejectsUnknownCells(t *testing.T) {
	c, err := NewCalibration()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"SoC_Q.serial", "SOC_3.T4", "SOC_3.T1", "SOC_3.Tx", "SoC_A.bogus", "SoC_A.serial+SoC_A"} {
		if _, err := c.resolve(bad); err == nil {
			t.Errorf("resolve(%q) succeeded", bad)
		}
	}
	cells, err := c.resolve("SoC_D.synthPR+SoC_D.full")
	if err != nil || len(cells) != 2 || cells[1] != (cell{c.index["SoC_D"], qTotal + c.cases[c.index["SoC_D"]].n}) {
		t.Errorf("resolve(SoC_D.synthPR+SoC_D.full) = %v, %v", cells, err)
	}
}
