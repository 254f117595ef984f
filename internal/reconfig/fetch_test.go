package reconfig

import (
	"context"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"presp/internal/faultinject"
	"presp/internal/flow"
)

var update = flag.Bool("update", false, "rewrite testdata/fetch_outcomes.golden")

// fetchPlans are seeded fault plans that corrupt fetches (the crc op),
// alone and next to transfer, ICAP and SEU faults. The seeds are the
// ones FuzzFaultPlan starts from.
var fetchPlans = []string{
	"seed=1,crc=0.3",
	"seed=7,transfer@dma=0.5,crc=0.3",
	"seed=11,seu@rt_1:after=2:count=3,crc=0.2",
	"seed=3,icap=1.0,crc=1.0,transfer=0.9",
}

// fetchInputs holds one valid invocation per accelerator of the stream.
var fetchInputs = map[string][][]float64{
	"gemm": {{1, 0, 0, 1}, {1, 2, 3, 4}},
	"sort": {{4, 3, 2, 1}},
	"fft":  {{1, 0, 0, 0}},
}

// TestFetchOutcomesMatchGolden pins every fetch outcome under the fault
// plans above: the error text of each call, the full swap timeline, the
// runtime counters and the tile's configuration health after a fixed
// stream of swaps and invocations. testdata/fetch_outcomes.golden was
// recorded before the manager stopped hashing intact fetches, so it
// shows that skipping that hash changes no outcome, retry or virtual
// time. Regenerate with -update only for an intended behaviour change.
func TestFetchOutcomesMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct{ retries, deadAt int }{{2, 3}, {0, 0}} {
		for _, spec := range fetchPlans {
			recordFetchOutcomes(t, &b, spec, c.retries, c.deadAt)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "fetch_outcomes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fetch outcomes differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// recordFetchOutcomes runs the fixed swap/invoke stream under one plan
// and retry budget and writes what every call and the runtime report.
// Without retries an injected corruption surfaces as the call's error;
// with them it is absorbed into the event's attempt count.
func recordFetchOutcomes(t *testing.T, b *strings.Builder, spec string, retries, deadAt int) {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg(plan, retries, deadAt)
	cfg.ScrubInterval = 20 * time.Microsecond
	cfg.SEUCheckInterval = 5 * time.Microsecond
	tb := newFaultTestbed(t, cfg, 1)
	fmt.Fprintf(b, "plan %s, %d retries, dead after %d\n", spec, retries, deadAt)
	for round := 0; round < 3; round++ {
		for _, acc := range []string{"gemm", "sort", "fft"} {
			fmt.Fprintf(b, "  swap %s: %v\n", acc, reconfigureSync(tb, "rt_1", acc))
			var ierr error
			tb.rt.InvokeOn("rt_1", acc, fetchInputs[acc], func(_ *InvokeResult, err error) { ierr = err })
			tb.drain()
			fmt.Fprintf(b, "  invoke %s: %v\n", acc, ierr)
		}
	}
	for _, ev := range tb.rt.Timeline() {
		fmt.Fprintf(b, "  event %+v\n", ev)
	}
	h, err := tb.rt.ConfigHealth("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "  stats %+v\n  health %+v\n  faults %d, now %d\n",
		tb.rt.Stats(), h, tb.rt.FaultsInjected(), tb.rt.Engine().Now())
}

// TestRegisteredImageIsPrivateCopy: the manager keeps its own copy of
// every registered image, so changing the caller's image afterwards
// changes nothing the DFXC fetches or the ICAP programs.
func TestRegisteredImageIsPrivateCopy(t *testing.T) {
	tb := newTestbed(t)
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), tb.rt.design, tb.plan,
		map[string][]string{"rt_1": {"gemm"}}, tb.reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs := bss["rt_1"]["gemm"]
	want := bs.Checksum
	if err := tb.rt.RegisterBitstream("rt_1", "gemm", bs); err != nil {
		t.Fatal(err)
	}
	bs.Data[bs.Size()/2] ^= 0xff

	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatalf("swap after the caller changed its image: %v", err)
	}
	if st := tb.rt.Stats(); st.Retries != 0 || st.Reconfigurations != 1 || st.FailedReconfigs != 0 {
		t.Fatalf("stats: %+v", st)
	}
	h, err := tb.rt.ConfigHealth("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if h.Loaded != "gemm" || h.GoldenCRC != want || h.ReadbackCRC != want {
		t.Fatalf("health %+v, want gemm programmed with CRC %08x", h, want)
	}
	// The programmed bytes themselves, not just the recorded checksum.
	if got := crc32.ChecksumIEEE(tb.rt.tiles["rt_1"].mem.golden.Data); got != want {
		t.Fatalf("programmed image has CRC %08x, registered %08x", got, want)
	}
}
