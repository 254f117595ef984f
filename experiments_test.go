package presp_test

import (
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
