package main

import (
	"reflect"
	"testing"

	"presp/internal/vivado"
)

// TestSpecsNameCostModelFields: the hill climber reaches each fitted
// parameter by field name, so every spec must name a distinct float64
// field of vivado.CostModel whose shipped value lies within its bounds.
func TestSpecsNameCostModelFields(t *testing.T) {
	m := reflect.ValueOf(vivado.DefaultCostModel()).Elem()
	seen := map[string]bool{}
	for _, s := range specs() {
		f := m.FieldByName(s.name)
		if !f.IsValid() || f.Kind() != reflect.Float64 {
			t.Errorf("%s: not a float64 field of vivado.CostModel", s.name)
			continue
		}
		if seen[s.name] {
			t.Errorf("%s: fitted twice", s.name)
		}
		seen[s.name] = true
		if v := f.Float(); v < s.min || v > s.max {
			t.Errorf("%s: shipped value %g outside [%g, %g]", s.name, v, s.min, s.max)
		}
	}
}
