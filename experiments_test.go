package presp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presp"
)

// TestRuntimeExperimentsDeterministic renders every experiment twice in
// one process and requires byte equality. Go randomises map iteration
// per range statement, so a result that depends on map order shows up
// as a difference between the two renders. The second render of fig4
// draws the pixel buffers the first handed back to the WAMI free list,
// so a plane released while still in use shows up here too.
func TestRuntimeExperimentsDeterministic(t *testing.T) {
	for _, name := range presp.ExperimentNames() {
		first, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		second, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("%s renders differ between two runs:\n--- first ---\n%s\n--- second ---\n%s", name, first, second)
		}
	}
}

// TestExperimentsMatchGolden pins every rendered value of the paper's
// artifacts: the whole `presp-bench` output (each experiment in
// ExperimentNames order, one trailing newline apiece) must equal
// testdata/experiments.golden byte for byte. The shape and ordering
// tests elsewhere pass a change that moves a cell by 10%; this one
// makes every moved cell an explicit diff. Regenerate only for an
// intended output change, with:
//
//	go test . -run TestExperimentsMatchGolden -update
func TestExperimentsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range presp.ExperimentNames() {
		out, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d differs\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
