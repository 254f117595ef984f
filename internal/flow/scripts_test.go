package flow

import (
	"context"
	"strings"
	"testing"

	"presp/internal/core"
)

func TestScriptsFullyParallel(t *testing.T) {
	d := soc2Design(t)
	res, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scripts
	if s == nil {
		t.Fatal("no scripts generated")
	}
	// One synthesis script per module + the static part.
	if len(s.Synthesis) != len(d.RPs)+1 {
		t.Fatalf("synthesis scripts: %d", len(s.Synthesis))
	}
	if !strings.Contains(s.Synthesis["static"], "synth_design -top SOC_2_static") {
		t.Fatalf("static synthesis script wrong:\n%s", s.Synthesis["static"])
	}
	for _, rp := range d.RPs {
		script, ok := s.Synthesis[rp.Name]
		if !ok {
			t.Fatalf("no synthesis script for %s", rp.Name)
		}
		if !strings.Contains(script, "-mode out_of_context") {
			t.Errorf("%s not synthesized out of context", rp.Name)
		}
	}
	// Floorplan constraints mark every partition reconfigurable.
	for _, rp := range d.RPs {
		if !strings.Contains(s.FloorplanXDC, "create_pblock pblock_"+rp.Name) {
			t.Errorf("no pblock for %s", rp.Name)
		}
		if !strings.Contains(s.FloorplanXDC, "HD.RECONFIGURABLE true [get_cells "+rp.Name+"]") {
			t.Errorf("%s not marked reconfigurable", rp.Name)
		}
	}
	// Fully parallel: a static pre-route plus one run per partition.
	if _, ok := s.Implementation["static"]; !ok {
		t.Fatal("no static pre-route script")
	}
	runs := 0
	for name := range s.Implementation {
		if strings.HasPrefix(name, "run_") {
			runs++
		}
	}
	if runs != res.Strategy.Tau {
		t.Fatalf("implementation runs: %d, want τ=%d", runs, res.Strategy.Tau)
	}
	if !strings.Contains(s.Implementation["static"], "lock_design -level routing") {
		t.Fatal("static pre-route does not lock routing")
	}
	if !strings.Contains(s.Makefile, "bitstreams:") {
		t.Fatal("Makefile lacks the single make target")
	}
	if !strings.Contains(s.Makefile, "parallel vivado") {
		t.Fatal("Makefile does not parallelize tool instances")
	}
}

func TestScriptsSerial(t *testing.T) {
	d := soc2Design(t)
	strat, err := core.ForceStrategy(d, core.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), d, Options{Strategy: strat, SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scripts
	if _, ok := s.Implementation["serial"]; !ok {
		t.Fatal("no serial implementation script")
	}
	if len(s.Implementation) != 1 {
		t.Fatalf("serial strategy should have one run, has %d", len(s.Implementation))
	}
	// The serial run still writes every partial bitstream.
	for _, rp := range d.RPs {
		if !strings.Contains(s.Implementation["serial"], "write_bitstream -cell "+rp.Name) {
			t.Errorf("serial run does not write %s's partial bitstream", rp.Name)
		}
	}
}

func TestGenerateScriptsValidation(t *testing.T) {
	d := soc2Design(t)
	if _, err := GenerateScripts(nil, nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateScripts(d, &core.Strategy{Kind: core.StrategyKind(42)}, plan); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// A contentless partition is an error, not a nil dereference: the
	// scripts job can run before the partition's failed synthesis stops
	// the graph.
	strat, err := core.ForceStrategy(d, core.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.RPs[1].Content = nil
	if _, err := GenerateScripts(d, strat, plan); err == nil {
		t.Fatal("partition without content accepted")
	}
}
