package server

import "testing"

// TestSpecKeyPinned pins the exact hex of SOC_2 spec keys. The key is
// the single-flight identity and what the WAL records for every job,
// so a change to its hashing would make recovered jobs miss their
// flights and idempotent resubmissions look like different specs.
func TestSpecKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Preset: "SOC_2"}, "5d39e17bb8dbd451"},
		{Spec{Preset: "SOC_2", Flow: "standard-dfx", Compress: true, SkipBitstreams: true, Retries: 2,
			ErrorPolicy: "collect", Faults: "seed=7,synth=0.2"}, "f8d3785cae95820c"},
		{Spec{Preset: "SOC_2", Strategy: "semi", Tau: 2, Compress: true}, "57174bd979fbb602"},
	} {
		cs, err := compile(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := specKey(cs); got != tc.want {
			t.Errorf("specKey(%+v) = %s, want %s", tc.spec, got, tc.want)
		}
	}
}
