package main

import (
	"math"
	"reflect"
	"testing"

	"presp/internal/vivado"
)

// TestShippedModelFit pins how well the shipped cost model reproduces
// the paper's published runtimes: the mean absolute error over the 50
// cells of Tables III–V and the one ordering it violates (the paper has
// SoC_B's monolithic flow just faster than PR-ESP in serial mode). A
// change to the cost model or to how the flows compose it moves these
// numbers and must update them, and the documents that quote them,
// together.
func TestShippedModelFit(t *testing.T) {
	cases, err := buildCases()
	if err != nil {
		t.Fatal(err)
	}
	ts, ords := buildTargets()
	f := objective(vivado.DefaultCostModel(), cases, ts, ords, false)
	if f.cells != 50 {
		t.Errorf("cells = %d, want 50", f.cells)
	}
	if math.Abs(f.mae-0.126471) > 1e-6 {
		t.Errorf("MAE = %.7f, want 0.126471", f.mae)
	}
	if want := []string{"TableV B mono < presp"}; !reflect.DeepEqual(f.violated, want) {
		t.Errorf("violated orderings = %q, want %q", f.violated, want)
	}
	if got, want := f.summary(), "MAE 12.65% over 50 cells; violated orderings: 1"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
