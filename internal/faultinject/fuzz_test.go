package faultinject

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzCADFaultPlan throws arbitrary fault-plan strings at the parser
// and, for every plan that parses, checks the property the flow engine
// builds on: the set of injected CAD faults is a pure function of the
// plan and the per-site check sequences — cross-site interleaving
// (i.e. goroutine scheduling in the worker pool) must not change which
// (site, occurrence) pairs fault.
func FuzzCADFaultPlan(f *testing.F) {
	f.Add(uint64(1), "synth@rt_1:count=1")
	f.Add(uint64(7), "seed=5,impl=0.4,bitgen=0.5")
	f.Add(uint64(9), "floorplan:after=1,drc@rt_2:count=-1")
	f.Add(uint64(42), "synth=1.0,impl@static:count=2,bitgen@full=0.3:count=1")
	f.Add(uint64(3), "seed=11,synth=0.9,drc=0.1:after=2")
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		if len(spec) > 128 {
			t.Skip()
		}
		plan, err := ParsePlan(spec) // must never panic, whatever the input
		if err != nil {
			t.Skip() // malformed plans are rejected at parse time
		}
		sites := []string{"static", "rt_1", "rt_2", "full"}
		ops := []Op{OpCADSynth, OpCADFloorplan, OpCADImpl, OpCADBitgen, OpCADDRC}
		drive := func(rng *rand.Rand) string {
			in, err := New(*plan)
			if err != nil {
				t.Fatalf("parsed plan rejected by New: %v", err)
			}
			// Per-site order is fixed (the flow serializes checks within a
			// job); cross-site and cross-op interleaving is shuffled.
			type check struct {
				op   Op
				site string
			}
			var order []check
			for _, op := range ops {
				for _, s := range sites {
					for i := 0; i < 3; i++ {
						order = append(order, check{op, s})
					}
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			occ := make(map[check]int)
			out := make(map[string]bool)
			for _, c := range order {
				faulted := in.Check(c.op, c.site) != nil
				out[fmt.Sprintf("%s@%s/%d", c.op, c.site, occ[c])] = faulted
				occ[c]++
			}
			var b []byte
			for _, op := range ops {
				for _, s := range sites {
					for i := 0; i < 3; i++ {
						if out[fmt.Sprintf("%s@%s/%d", op, s, i)] {
							b = append(b, '1')
						} else {
							b = append(b, '0')
						}
					}
				}
			}
			b = append(b, fmt.Sprintf("|%d", in.Injected())...)
			return string(b)
		}
		ref := drive(rand.New(rand.NewSource(int64(seed))))
		got := drive(rand.New(rand.NewSource(int64(seed) + 1)))
		if ref != got {
			t.Fatalf("plan %q: fault set depends on interleaving:\n%s\n%s", spec, ref, got)
		}
	})
}
