package faultinject

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/check_outcomes.golden")

// goldenCheck is one reported operation: the op and the sites the
// caller labels it with, primary site first.
type goldenCheck struct {
	op    Op
	sites []string
}

func chk(op Op, sites ...string) goldenCheck { return goldenCheck{op, sites} }

// goldenCases pair a plan with the operations its callers report. Each
// case's checks are drawn from opts in a fixed, uneven order, so every
// rule sees interleaved sites and ops.
var goldenCases = []struct {
	name string
	plan string
	n    int
	opts []goldenCheck
}{
	{
		name: "runtime",
		plan: "seed=42,icap@rt_1:after=2:count=2,transfer@dma=0.3,recouple:after=3:count=-1,crc=0.25:count=4,kernel@fft=0.5,decouple@rt_2,transfer@rt_1:count=2,icap=0.2",
		n:    240,
		opts: []goldenCheck{
			chk(OpTransfer, "dma", "rt_1", "rt_2"),
			chk(OpTransfer, "mem-rsp", "rt_2", "rt_1"),
			chk(OpDecouple, "rt_1"),
			chk(OpDecouple, "rt_2"),
			chk(OpRecouple, "rt_1"),
			chk(OpRecouple, "rt_2"),
			chk(OpICAP, "rt_1", "fft"),
			chk(OpICAP, "rt_2", "conv2d"),
			chk(OpFetchCRC, "rt_1", "fft"),
			chk(OpFetchCRC, "rt_2", "gemm"),
			chk(OpKernel, "fft", "rt_1"),
			chk(OpKernel, "gemm", "rt_2"),
		},
	},
	{
		name: "cad",
		plan: "seed=11,synth@rt_1_rp:count=1,impl=0.3,bitgen@rt_2_rp:after=1:count=2,drc=0.5:count=2,floorplan:after=1,synth@conv2d_rm:after=1:count=-1,synth=0.2:count=3,impl@static:after=2:count=-1",
		n:    260,
		opts: []goldenCheck{
			chk(OpCADSynth, "rt_1_rp", "conv2d_rm"),
			chk(OpCADSynth, "rt_2_rp", "conv2d_rm"),
			chk(OpCADSynth, "rt_2_rp", "gemm_rm"),
			chk(OpCADSynth, "full", "soc"),
			chk(OpCADFloorplan, "soc"),
			chk(OpCADImpl, "static", "soc"),
			chk(OpCADImpl, "soc", "serial"),
			chk(OpCADImpl, "rt_1_rp", "rt_2_rp", "soc_ctx"),
			chk(OpCADBitgen, "rt_1_rp", "conv2d"),
			chk(OpCADBitgen, "rt_2_rp", "gemm"),
			chk(OpCADBitgen, "full", "soc"),
			chk(OpCADDRC, "rt_1_rp"),
			chk(OpCADDRC, "rt_2_rp"),
		},
	},
	{
		name: "seu",
		plan: "seed=7,seu@rt_1=0.3,seu@rt_2:after=2:count=3,seu=0.1:count=2,seu@gemm:after=20:count=-1",
		n:    200,
		opts: []goldenCheck{
			chk(OpSEU, "rt_1", "fft"),
			chk(OpSEU, "rt_2", "gemm"),
			chk(OpSEU, "rt_3", "conv2d"),
			chk(OpSEU, "rt_3", "gemm"),
		},
	},
	{
		name: "mixed",
		plan: "seed=11,seu@rt_1:after=2:count=3,crc=0.2,icap@rt_1=0.3,seu=0.25,icap@rt_2:after=1:count=2",
		n:    240,
		opts: []goldenCheck{
			chk(OpFetchCRC, "rt_1", "fft"),
			chk(OpICAP, "rt_1", "fft"),
			chk(OpSEU, "rt_1", "fft"),
			chk(OpSEU, "rt_2", "gemm"),
			chk(OpFetchCRC, "rt_2", "gemm"),
			chk(OpICAP, "rt_2", "gemm"),
		},
	},
}

// goldenStream returns n checks drawn from opts by a fixed linear
// congruential sequence.
func goldenStream(opts []goldenCheck, n int) []goldenCheck {
	out := make([]goldenCheck, n)
	x := uint64(1)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = opts[(x>>33)%uint64(len(opts))]
	}
	return out
}

// TestCheckOutcomesMatchGolden pins every Check outcome — nil, or the
// fault's op, site, sequence number and rule — and the final
// Injected/InjectedBy counts for each case above, all through one
// Injector. testdata/check_outcomes.golden was recorded before the
// injector was merged, when callers routed runtime stream ops to an
// Injector and CAD and seu ops to a separate order-independent
// injector built from the same plan (their Injected counts summed), so
// it shows that letting the op pick the counting rule changes no
// outcome. Regenerate with -update only for an intended behaviour
// change.
func TestCheckOutcomesMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases {
		plan, err := ParsePlan(c.plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		in, err := New(*plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s: %s\n", c.name, c.plan)
		for i, ck := range goldenStream(c.opts, c.n) {
			res := "nil"
			if err := in.Check(ck.op, ck.sites...); err != nil {
				res = err.Error()
			}
			fmt.Fprintf(&b, "%3d %s@%s -> %s\n", i, ck.op, strings.Join(ck.sites, "/"), res)
		}
		fmt.Fprintf(&b, "injected %d\n", in.Injected())
		for op := Op(0); op < numOps; op++ {
			fmt.Fprintf(&b, "by %s %d\n", op, in.InjectedBy(op))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "check_outcomes.golden")
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
		t.Fatalf("check outcomes differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSEUChecksLeaveStreamUntouched: in the mixed plan, the crc and
// icap outcomes — fault sequence numbers included — are the same
// whether or not seu checks are interleaved with them. seu counts per
// site and draws from its own hash, so it neither renumbers a stream
// fault nor consumes a stream draw.
func TestSEUChecksLeaveStreamUntouched(t *testing.T) {
	c := goldenCases[3]
	plan, err := ParsePlan(c.plan)
	if err != nil {
		t.Fatal(err)
	}
	run := func(withSEU bool) (stream []string, seuFaults int) {
		in, err := New(*plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, ck := range goldenStream(c.opts, c.n) {
			if ck.op == OpSEU && !withSEU {
				continue
			}
			err := in.Check(ck.op, ck.sites...)
			if ck.op != OpSEU {
				stream = append(stream, fmt.Sprint(err))
			}
		}
		return stream, in.InjectedBy(OpSEU)
	}
	alone, _ := run(false)
	mixed, seuFaults := run(true)
	if seuFaults == 0 {
		t.Fatal("the mixed plan injected no seu fault, so the test shows nothing")
	}
	for i := range alone {
		if alone[i] != mixed[i] {
			t.Fatalf("stream check %d: %s alone, %s beside seu checks", i, alone[i], mixed[i])
		}
	}
}
