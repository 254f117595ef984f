package experiments

import (
	"reflect"
	"testing"
)

// TestPresetDesignShared: PresetDesign hands every caller the same
// frozen design, equal to a fresh elaboration but for the freeze, while
// ElaborateConfig keeps returning a new, unfrozen one. That no flow
// writes a shared design is TestFlowsNeverWriteSharedDesigns, in
// internal/flow.
func TestPresetDesignShared(t *testing.T) {
	for _, name := range PresetNames() {
		d1, err := PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: PresetDesign returned two designs", name)
		}
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ElaborateConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == d1 {
			t.Fatalf("%s: ElaborateConfig returned the shared design", name)
		}
		if !d1.Frozen() || fresh.Frozen() {
			t.Fatalf("%s: shared design frozen=%v, fresh design frozen=%v", name, d1.Frozen(), fresh.Frozen())
		}
		fresh.Freeze()
		if !reflect.DeepEqual(fresh, d1) {
			t.Fatalf("%s: shared design differs from a fresh elaboration", name)
		}
	}
	if _, err := PresetDesign("SOC_9"); err == nil || err.Error() != `experiments: unknown preset "SOC_9"` {
		t.Fatalf("unknown preset: err = %v", err)
	}
}
