package faultinject

import (
	"fmt"
	"strings"
	"testing"
)

func TestDeterministicRuleWindow(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpICAP, Site: "rt_1", After: 2, Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, inj.Check(OpICAP, "rt_1") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: faulted=%v, sequence %v", i, got[i], got)
		}
	}
	if inj.Injected() != 2 || inj.InjectedBy(OpICAP) != 2 {
		t.Fatalf("injected: %d / %d", inj.Injected(), inj.InjectedBy(OpICAP))
	}
}

func TestPersistentRule(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpRecouple, Count: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if inj.Check(OpRecouple, "rt_1") == nil {
			t.Fatalf("persistent rule skipped occurrence %d", i)
		}
	}
}

func TestSiteSelectivity(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpTransfer, Site: "dma", Count: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Check(OpTransfer, "mem-rsp", "rt_1") != nil {
		t.Fatal("rule for dma plane hit mem-rsp transfer")
	}
	if inj.Check(OpTransfer, "dma", "rt_1") == nil {
		t.Fatal("rule missed dma transfer")
	}
	if inj.Check(OpICAP, "dma") != nil {
		t.Fatal("transfer rule hit an ICAP operation")
	}
	// Any listed site matches, not only the first.
	if inj.Check(OpTransfer, "interrupt", "dma") == nil {
		t.Fatal("rule missed dma as secondary site")
	}
}

func TestFaultError(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpDecouple, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ferr := inj.Check(OpDecouple, "rt_1")
	if ferr == nil {
		t.Fatal("no fault")
	}
	f, ok := As(ferr)
	if !ok {
		t.Fatal("fault not recognized by As")
	}
	if f.Op != OpDecouple || f.Site != "rt_1" || f.Seq != 1 {
		t.Fatalf("fault fields: %+v", f)
	}
	if !strings.Contains(ferr.Error(), "decouple") || !strings.Contains(ferr.Error(), "rt_1") {
		t.Fatalf("error text: %v", ferr)
	}
	if _, ok := As(fmt.Errorf("plain")); ok {
		t.Fatal("plain error recognized as fault")
	}
	if _, ok := As(fmt.Errorf("wrapped: %w", ferr)); !ok {
		t.Fatal("wrapped fault not recognized")
	}
}

// TestRateRuleDeterminism: a seeded rate rule injects an identical
// fault sequence on every fresh injector.
func TestRateRuleDeterminism(t *testing.T) {
	sequence := func(seed uint64) string {
		inj, err := New(Plan{Seed: seed, Rules: []Rule{{Op: OpTransfer, Rate: 0.3}}})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if inj.Check(OpTransfer, "dma") != nil {
				b.WriteByte('X')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := sequence(7), sequence(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == sequence(8) {
		t.Fatal("different seeds produced identical sequences (suspicious)")
	}
	hits := strings.Count(a, "X")
	if hits < 30 || hits > 90 {
		t.Fatalf("rate 0.3 over 200 draws hit %d times", hits)
	}
}

func TestRateRuleCountBound(t *testing.T) {
	inj, err := New(Plan{Seed: 1, Rules: []Rule{{Op: OpKernel, Rate: 1.0, Count: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 50; i++ {
		if inj.Check(OpKernel, "fft") != nil {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("count bound ignored: %d faults", n)
	}
}

func TestValidation(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Op: OpICAP, Count: 0}}},            // never fires
		{Rules: []Rule{{Op: OpICAP, Rate: 1.5, Count: 1}}}, // rate > 1
		{Rules: []Rule{{Op: OpICAP, After: -1, Count: 1}}}, // negative after
		{Rules: []Rule{{Op: Op(99), Count: 1}}},            // unknown op
		{Rules: []Rule{{Op: OpICAP, Rate: -0.1}}},          // negative rate
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if _, err := New(Plan{}); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
}

// TestSEURuleParseAndValidation: the seu op round-trips through the
// plan grammar, and the dead-rule shapes — zero rate with no count —
// are rejected with an error that names the fix instead of being
// silently accepted.
func TestSEURuleParseAndValidation(t *testing.T) {
	p, err := ParsePlan("seed=9,seu@rt_1=0.01,seu@t0:after=10:count=3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: OpSEU, Site: "rt_1", Rate: 0.01},
		{Op: OpSEU, Site: "t0", After: 10, Count: 3},
	}
	for i, w := range want {
		if p.Rules[i] != w {
			t.Errorf("rule %d: got %+v want %+v", i, p.Rules[i], w)
		}
	}
	if _, err := ParsePlan(p.String()); err != nil {
		t.Fatalf("seu plan does not round-trip: %q: %v", p.String(), err)
	}
	for _, dead := range []string{"seu@rt_1=0", "seu=0.0", "seu@t0:count=0"} {
		_, err := ParsePlan(dead)
		if err == nil {
			t.Errorf("dead seu rule %q accepted", dead)
			continue
		}
		if !strings.Contains(err.Error(), "seu rule") || !strings.Contains(err.Error(), "rate") {
			t.Errorf("dead seu rule %q: error does not name the fix: %v", dead, err)
		}
	}
	// The generic dead-rule shape gets the generic clear error.
	if _, err := ParsePlan("icap=0"); err == nil || !strings.Contains(err.Error(), "never fires") {
		t.Errorf("dead icap rule: %v", err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Check(OpICAP, "rt_1") != nil {
		t.Fatal("nil injector faulted")
	}
	if inj.Injected() != 0 || inj.InjectedBy(OpICAP) != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42,icap@rt_1:after=2:count=1,transfer@dma=0.05,recouple:count=-1,crc=0.2:count=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Rules) != 4 {
		t.Fatalf("plan: %+v", p)
	}
	want := []Rule{
		{Op: OpICAP, Site: "rt_1", After: 2, Count: 1},
		{Op: OpTransfer, Site: "dma", Rate: 0.05},
		{Op: OpRecouple, Count: -1},
		{Op: OpFetchCRC, Rate: 0.2, Count: 3},
	}
	for i, w := range want {
		if p.Rules[i] != w {
			t.Errorf("rule %d: got %+v want %+v", i, p.Rules[i], w)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	in := "seed=7,icap@rt_1:after=1,transfer@dma=0.1,kernel@fft:count=-1"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.Seed != p2.Seed || len(p.Rules) != len(p2.Rules) {
		t.Fatalf("round trip changed plan: %q -> %q", in, p2.String())
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Fatalf("rule %d changed: %+v vs %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"warp@rt_1",       // unknown op
		"icap@",           // empty site
		"seed=banana",     // bad seed
		"icap:count=x",    // bad count
		"icap:depth=3",    // unknown option
		"transfer=2.0",    // rate out of range
		"icap:count=0",    // never fires
		"icap@rt_1:after", // option without value
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
	p, err := ParsePlan("")
	if err != nil || len(p.Rules) != 0 {
		t.Fatalf("empty plan: %v %+v", err, p)
	}
}

// TestDrawConsumptionIsStable: rate rules consume a draw on every
// match whether or not an earlier deterministic rule fired, so adding
// a one-shot rule does not shift the rate rule's later fault pattern.
func TestDrawConsumptionIsStable(t *testing.T) {
	run := func(extra bool) string {
		rules := []Rule{{Op: OpTransfer, Rate: 0.25}}
		if extra {
			rules = append([]Rule{{Op: OpTransfer, Count: 1}}, rules...)
		}
		inj, err := New(Plan{Seed: 3, Rules: rules})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 100; i++ {
			if inj.Check(OpTransfer, "dma") != nil {
				b.WriteByte('X')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	plain, withExtra := run(false), run(true)
	// Occurrence 0 faults deterministically in the extra run; the rate
	// pattern from occurrence 1 on must be unchanged.
	if plain[1:] != withExtra[1:] {
		t.Fatalf("one-shot rule perturbed the rate sequence:\n%s\n%s", plain, withExtra)
	}
}

// TestPlanForFlowAndRuntime: each half of PR-ESP rejects the first rule
// for an op it never checks, naming that rule, and accepts its own ops.
func TestPlanForFlowAndRuntime(t *testing.T) {
	for _, tc := range []struct {
		spec string
		// flowRule and runtimeRule name the rule each check rejects
		// ("" = accepted).
		flowRule, runtimeRule string
	}{
		{"seed=1,synth=1.0,impl@rt_1_rp:count=2,floorplan,bitgen=0.1,drc", "", "synth=1"},
		{"seed=1,transfer@dma=0.1,decouple,recouple,icap=1.0,crc=1.0,kernel,seu=0.2", "transfer@dma=0.1", ""},
		{"seed=1,synth=0.5,icap=1.0,crc=1.0", "icap=1", "synth=0.5"},
		{"seed=1,seu@rt_1=0.5", "seu@rt_1=0.5", ""},
		{"", "", ""},
	} {
		plan, err := ParsePlan(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			err  error
			rule string
		}{{"ForFlow", plan.ForFlow(), tc.flowRule}, {"ForRuntime", plan.ForRuntime(), tc.runtimeRule}} {
			if c.rule == "" {
				if c.err != nil {
					t.Errorf("%q: %s: %v", tc.spec, c.name, c.err)
				}
				continue
			}
			if c.err == nil || !strings.Contains(c.err.Error(), "rule "+c.rule+":") {
				t.Errorf("%q: %s = %v, want an error naming rule %s", tc.spec, c.name, c.err, c.rule)
			}
		}
	}
	var nilPlan *Plan
	if nilPlan.ForFlow() != nil || nilPlan.ForRuntime() != nil {
		t.Fatal("a nil plan was rejected")
	}
}
