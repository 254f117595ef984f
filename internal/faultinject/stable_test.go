package faultinject

// Tests of the per-site counting rule that CAD and seu ops follow: a
// fault set that is stable under any cross-site interleaving.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// outcomeMap records, for a sequence of per-site checks, which (site,
// occurrence) pairs faulted.
type outcomeMap map[string]bool

// driveSites runs nPerSite checks of op at every site, interleaving
// sites in the order perm yields, and returns the fault outcomes keyed
// by site/occurrence. Per-site order is fixed (occurrence 0,1,2,...) —
// that is the serialization the flow's one-job-per-site structure
// guarantees — while cross-site interleaving is arbitrary.
func driveSites(t *testing.T, plan Plan, op Op, sites []string, nPerSite int, rng *rand.Rand) outcomeMap {
	t.Helper()
	in, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Build the multiset of pending checks and shuffle cross-site order.
	type pending struct {
		site string
		next int
	}
	state := make(map[string]*pending, len(sites))
	var order []string
	for _, s := range sites {
		state[s] = &pending{site: s}
		for i := 0; i < nPerSite; i++ {
			order = append(order, s)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	out := make(outcomeMap)
	for _, s := range order {
		p := state[s]
		err := in.Check(op, s)
		out[fmt.Sprintf("%s/%d", s, p.next)] = err != nil
		p.next++
	}
	return out
}

// TestStableInjectorOrderIndependence: for deterministic and rate rules
// alike, the set of faulted (site, occurrence) pairs is identical for
// every cross-site interleaving — the property that keeps CAD fault
// injection byte-identical for any worker count.
func TestStableInjectorOrderIndependence(t *testing.T) {
	plans := []Plan{
		{Rules: []Rule{{Op: OpCADSynth, Count: 1}}},
		{Rules: []Rule{{Op: OpCADImpl, Site: "rt_1", After: 1, Count: 2}}},
		{Seed: 7, Rules: []Rule{{Op: OpCADSynth, Rate: 0.5}}},
		{Seed: 99, Rules: []Rule{{Op: OpCADBitgen, Rate: 0.3, Count: 2}, {Op: OpCADBitgen, Site: "full", Count: -1}}},
	}
	sites := []string{"rt_1", "rt_2", "static", "full"}
	for pi, plan := range plans {
		op := plan.Rules[0].Op
		var baseline outcomeMap
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			out := driveSites(t, plan, op, sites, 6, rng)
			if trial == 0 {
				baseline = out
				continue
			}
			for k, v := range out {
				if baseline[k] != v {
					t.Fatalf("plan %d trial %d: outcome at %s is %v, baseline says %v", pi, trial, k, v, baseline[k])
				}
			}
		}
	}
}

// TestStableInjectorConcurrentDeterminism: checks arriving from many
// goroutines (per-site serialized, as the flow guarantees) produce the
// same outcome set as a single-threaded run.
func TestStableInjectorConcurrentDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Op: OpCADSynth, Rate: 0.4},
		{Op: OpCADSynth, Site: "rt_2", After: 2, Count: -1},
	}}
	sites := []string{"rt_1", "rt_2", "rt_3", "static"}
	const nPerSite = 50

	reference := driveSites(t, plan, OpCADSynth, sites, nPerSite, rand.New(rand.NewSource(1)))

	for trial := 0; trial < 5; trial++ {
		in, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		got := make(outcomeMap)
		var wg sync.WaitGroup
		for _, s := range sites {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nPerSite; i++ {
					err := in.Check(OpCADSynth, s)
					mu.Lock()
					got[fmt.Sprintf("%s/%d", s, i)] = err != nil
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for k, v := range got {
			if reference[k] != v {
				t.Fatalf("trial %d: concurrent outcome at %s is %v, single-threaded reference says %v", trial, k, v, reference[k])
			}
		}
	}
}

// TestStableInjectorPerSiteWindows: a site-less deterministic rule fires
// its window independently at every site — the documented CAD-op
// semantics.
func TestStableInjectorPerSiteWindows(t *testing.T) {
	in, err := New(Plan{Rules: []Rule{{Op: OpCADSynth, After: 1, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"a", "b"} {
		if err := in.Check(OpCADSynth, site); err != nil {
			t.Fatalf("site %s occurrence 0 faulted inside the After window", site)
		}
		if err := in.Check(OpCADSynth, site); err == nil {
			t.Fatalf("site %s occurrence 1 did not fault", site)
		}
		if err := in.Check(OpCADSynth, site); err != nil {
			t.Fatalf("site %s occurrence 2 faulted past the Count window", site)
		}
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("injected %d faults, want 2 (one per site)", got)
	}
	if got := in.InjectedBy(OpCADSynth); got != 2 {
		t.Fatalf("InjectedBy(synth) = %d, want 2", got)
	}
	if got := in.InjectedBy(OpCADBitgen); got != 0 {
		t.Fatalf("InjectedBy(bitgen) = %d, want 0", got)
	}
}

// TestStableInjectorSiteRuleMatchesSecondarySites: a rule naming a
// secondary site (the module name Synthesize appends) still matches,
// but counters stay keyed on the primary site.
func TestStableInjectorSiteRuleMatchesSecondarySites(t *testing.T) {
	in, err := New(Plan{Rules: []Rule{{Op: OpCADSynth, Site: "conv2d_rm", Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	err1 := in.Check(OpCADSynth, "rt_1", "conv2d_rm")
	err2 := in.Check(OpCADSynth, "rt_2", "conv2d_rm")
	if err1 == nil || err2 == nil {
		t.Fatalf("module-site rule should fault the first synthesis at each hosting partition: got %v, %v", err1, err2)
	}
	f, ok := As(err1)
	if !ok {
		t.Fatalf("injected error is not a Fault: %v", err1)
	}
	if f.Site != "rt_1" {
		t.Fatalf("fault labeled with site %q, want the primary site rt_1", f.Site)
	}
	if err := in.Check(OpCADSynth, "rt_1", "conv2d_rm"); err != nil {
		t.Fatalf("rt_1's second synthesis faulted past count=1: %v", err)
	}
}

// TestStableInjectorRateSeedReproducible: the same seed reproduces the
// same draws; flipping the seed changes at least one outcome over a
// long stream (overwhelmingly likely at rate 0.5).
func TestStableInjectorRateSeedReproducible(t *testing.T) {
	run := func(seed uint64) []bool {
		in, err := New(Plan{Seed: seed, Rules: []Rule{{Op: OpCADImpl, Rate: 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Check(OpCADImpl, "site") != nil)
		}
		return out
	}
	a, b, c := run(5), run(5), run(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at occurrence %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 5 and 6 produced identical 64-draw streams")
	}
}

// TestStableInjectorRateCount: a rate rule stops after Count injections
// at each site.
func TestStableInjectorRateCount(t *testing.T) {
	in, err := New(Plan{Seed: 1, Rules: []Rule{{Op: OpCADBitgen, Rate: 1.0, Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for i := 0; i < 10; i++ {
		if in.Check(OpCADBitgen, "x") != nil {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("rate rule with count=2 injected %d faults at one site", faults)
	}
	if in.Check(OpCADBitgen, "y") == nil {
		t.Fatal("count cap leaked across sites: site y should still fault")
	}
}

// TestStableInjectorNilAndPlanCopy: a nil injector is inert, and New
// copies the plan's rules, so editing the caller's plan afterwards
// changes nothing.
func TestStableInjectorNilAndPlanCopy(t *testing.T) {
	var nilIn *Injector
	if nilIn.Check(OpCADSynth, "x") != nil || nilIn.Injected() != 0 || nilIn.InjectedBy(OpCADSynth) != 0 {
		t.Fatal("nil injector is not inert")
	}
	plan := Plan{Rules: []Rule{{Op: OpCADDRC, Count: 1}}}
	in, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	plan.Rules[0].Count = -1
	if in.Check(OpCADDRC, "x") == nil || in.Check(OpCADDRC, "x") != nil {
		t.Fatal("the injector follows edits of the caller's plan")
	}
}

// TestCADOpsParse: the five CAD ops round-trip through ParseOp/String
// and the shared plan grammar.
func TestCADOpsParse(t *testing.T) {
	for _, op := range []Op{OpCADSynth, OpCADFloorplan, OpCADImpl, OpCADBitgen, OpCADDRC} {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Fatalf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
	plan, err := ParsePlan("seed=9,synth@rt_1:count=1,impl=0.3,bitgen@rt_2:count=-1,drc@rt_1,floorplan:after=1")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 9 || len(plan.Rules) != 5 {
		t.Fatalf("parsed plan %+v", plan)
	}
	if _, err := New(*plan); err != nil {
		t.Fatal(err)
	}
}
