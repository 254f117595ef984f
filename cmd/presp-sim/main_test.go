package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"presp/internal/faultinject"
	"presp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden outputs")

// TestRunMatchesGolden pins presp-sim's whole report on every runtime
// SoC under a seeded fault storm with the scrubber on, and on SoC_Y
// with the default flags. Each case runs twice in one process, so a
// result that leaks map iteration order fails even when the first run
// happens to match. Regenerate with:
//
//	go test ./cmd/presp-sim -run TestRunMatchesGolden -update
func TestRunMatchesGolden(t *testing.T) {
	storm := []string{"-frames", "6", "-faults", "seed=7,icap=0.2,crc=0.1", "-scrub-interval", "500us"}
	cases := []struct {
		golden string
		args   []string
	}{
		{"SoC_X_faults", append([]string{"-soc", "SoC_X"}, storm...)},
		{"SoC_Y_faults", append([]string{"-soc", "SoC_Y"}, storm...)},
		{"SoC_Z_faults", append([]string{"-soc", "SoC_Z"}, storm...)},
		{"SoC_Y_default", nil},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			path := filepath.Join("testdata", c.golden+".golden")
			var runs [2]bytes.Buffer
			for i := range runs {
				o, err := parseCLI(c.args)
				if err != nil {
					t.Fatal(err)
				}
				if err := run(o, &runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
				t.Fatalf("two runs in one process differ:\n--- first ---\n%s\n--- second ---\n%s", &runs[0], &runs[1])
			}
			if *update {
				if err := os.WriteFile(path, runs[0].Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got := runs[0].Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("output drifted from %s (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestParseCLIDefaults(t *testing.T) {
	o, err := parseCLI(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.soc != "SoC_Y" || o.frames != 6 || o.edge != 128 || o.iters != 1 ||
		!o.compress || o.faultPlan != nil || o.tracePath != "" || o.scrubInterval != 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestParseCLIFlags(t *testing.T) {
	o, err := parseCLI([]string{
		"-soc", "SoC_Z",
		"-frames", "3",
		"-edge", "64",
		"-lk-iters", "2",
		"-no-compress",
		"-trace", "out.json",
		"-scrub-interval", "500us",
		"-faults", "seed=7,icap=0.2,crc@rt_2=0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.soc != "SoC_Z" || o.frames != 3 || o.edge != 64 || o.iters != 2 ||
		o.compress || o.tracePath != "out.json" || o.scrubInterval != 500*time.Microsecond {
		t.Fatalf("parsed: %+v", o)
	}
	if o.faultPlan == nil || o.faultPlan.Seed != 7 || len(o.faultPlan.Rules) != 2 {
		t.Fatalf("fault plan = %+v", o.faultPlan)
	}
	if o.faultPlan.Rules[0].Op != faultinject.OpICAP {
		t.Fatalf("rule 0 = %+v", o.faultPlan.Rules[0])
	}
}

func TestParseCLIRejects(t *testing.T) {
	cases := [][]string{
		{"-faults", "frobnicate@x:count=1"},
		{"-faults", "icap:count=notanumber"},
		{"-frames", "0"},
		{"-frames", "x"},
		{"-soc", "SoC_Y", "stray-arg"},
		{"-no-such-flag"},
		{"-scrub-interval", "-1ms"},
		{"-faults", "seu@rt_1=0"},
		{"-faults", "seed=1,synth=1.0,impl=1.0"}, // CAD ops: the runtime never checks them
		{"-faults", "seed=1,icap=0.2,drc@rt_1_rp"},
	}
	for _, args := range cases {
		if _, err := parseCLI(args); err == nil {
			t.Errorf("parseCLI(%q) accepted", args)
		}
	}
	if _, err := parseCLI([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestRunUnknownSoC: run() surfaces a bad -soc selection as an error.
func TestRunUnknownSoC(t *testing.T) {
	o, err := parseCLI([]string{"-soc", "SoC_Q"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Fatal("unknown SoC accepted")
	}
}

// TestRunWithScrubber drives the binary end to end with an SEU storm
// and the readback scrubber enabled; the run must complete and produce
// correct frames (run() checks pipeline results internally).
func TestRunWithScrubber(t *testing.T) {
	o, err := parseCLI([]string{"-soc", "SoC_Z", "-frames", "2", "-edge", "32",
		"-faults", "seed=7,seu=0.05", "-scrub-interval", "200us"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("scrubbed run failed: %v", err)
	}
}

// TestRunWritesValidTrace drives the binary logic end to end with
// -trace and checks the emitted file is a well-formed Chrome trace:
// parseable, with at least one reconfiguration span, and with
// correctly nesting spans on every lane.
func TestRunWritesValidTrace(t *testing.T) {
	path := t.TempDir() + "/sim.json"
	o, err := parseCLI([]string{"-soc", "SoC_Z", "-frames", "2", "-edge", "32", "-trace", path})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if n := obs.CountSpans(tf.TraceEvents, "reconfig"); n == 0 {
		t.Fatal("traced run recorded no reconfiguration spans")
	}
	if err := obs.CheckNesting(tf.TraceEvents); err != nil {
		t.Fatalf("trace events do not nest: %v", err)
	}
}
