package vivado

import (
	"context"
	"strings"
	"testing"

	"presp/internal/bitstream"
	"presp/internal/fpga"
	"presp/internal/rtl"
	"presp/internal/tile"
)

func newTool(t *testing.T) *Tool {
	t.Helper()
	tool, err := New(fpga.VC707(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil device accepted")
	}
	bad := DefaultCostModel()
	bad.PRPerK = 0
	if _, err := New(fpga.VC707(), bad); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestSynthesize(t *testing.T) {
	tool := newTool(t)
	m := &rtl.Module{Name: "m", Cost: fpga.NewResources(10000, 11000, 4, 8)}
	ck, err := tool.Synthesize(context.Background(), "", m, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Resources != m.Cost || !ck.OoC || ck.Runtime <= 0 {
		t.Fatalf("checkpoint wrong: %+v", ck)
	}
	if _, err := tool.Synthesize(context.Background(), "", nil, false); err == nil {
		t.Fatal("nil module synthesized")
	}
	empty := &rtl.Module{Name: "empty"}
	if _, err := tool.Synthesize(context.Background(), "", empty, false); err == nil {
		t.Fatal("empty module synthesized")
	}
	huge := &rtl.Module{Name: "huge", Cost: fpga.NewResources(400000, 0, 0, 0)}
	if _, err := tool.Synthesize(context.Background(), "", huge, false); err == nil {
		t.Fatal("over-capacity module synthesized")
	}
}

func TestSynthesizeRecordsBlackBoxes(t *testing.T) {
	tool := newTool(t)
	top := &rtl.Module{Name: "top", Cost: fpga.NewResources(5000, 5000, 0, 0)}
	bb := &rtl.Module{Name: "rp_bb", BlackBox: true}
	top.AddChild("rp0", bb)
	ck, err := tool.Synthesize(context.Background(), "", top, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.BlackBoxes) != 1 {
		t.Fatalf("black boxes: got %v", ck.BlackBoxes)
	}
}

func TestCheckDFX(t *testing.T) {
	tool := newTool(t)
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 3, Y1: 1}
	good := tile.WrapperModule("fft", fpga.NewResources(33000, 36000, 70, 140))
	if err := tool.CheckDFX(context.Background(), good, good.Cost, pb); err != nil {
		t.Fatalf("compliant module rejected: %v", err)
	}
	// Clock-modifying logic inside the partition.
	bad := tile.NativeAccelModule("acc", fpga.NewResources(10000, 10000, 0, 0))
	if err := tool.CheckDFX(context.Background(), bad, bad.TotalCost(), pb); err == nil {
		t.Fatal("clock-modifying partition passed DRC")
	}
	// Partition larger than its pblock.
	tiny := fpga.Pblock{Name: "tiny", X0: 0, Y0: 0, X1: 0, Y1: 0}
	if err := tool.CheckDFX(context.Background(), good, good.Cost, tiny); err == nil {
		t.Fatal("oversized partition passed DRC")
	}
	// Invalid pblock.
	oob := fpga.Pblock{Name: "oob", X0: 0, Y0: 0, X1: 99, Y1: 0}
	if err := tool.CheckDFX(context.Background(), good, good.Cost, oob); err == nil {
		t.Fatal("out-of-grid pblock passed DRC")
	}
}

func TestPreRouteStatic(t *testing.T) {
	tool := newTool(t)
	static := &SynthCheckpoint{Name: "static", Resources: fpga.NewResources(80000, 90000, 100, 20)}
	pblocks := map[string]fpga.Pblock{
		"rp1": {Name: "rp1", X0: 0, Y0: 1, X1: 3, Y1: 2},
		"rp2": {Name: "rp2", X0: 4, Y0: 1, X1: 7, Y1: 2},
	}
	rs, err := tool.PreRouteStatic(context.Background(), "soc", static, pblocks, fpga.NewResources(60000, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Runtime <= 0 {
		t.Fatal("pre-route took no time")
	}
	if rs.RPFraction(tool.Device()) <= 0 {
		t.Fatal("no fabric reserved")
	}
	// Overlapping pblocks must be rejected.
	pblocks["rp3"] = fpga.Pblock{Name: "rp3", X0: 3, Y0: 2, X1: 5, Y1: 3}
	if _, err := tool.PreRouteStatic(context.Background(), "soc", static, pblocks, fpga.Resources{}); err == nil {
		t.Fatal("overlapping pblocks accepted")
	}
	if _, err := tool.PreRouteStatic(context.Background(), "soc", static, nil, fpga.Resources{}); err == nil {
		t.Fatal("pre-route without partitions accepted")
	}
	if _, err := tool.PreRouteStatic(context.Background(), "soc", nil, pblocks, fpga.Resources{}); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

func TestPreRouteStaticCapacity(t *testing.T) {
	tool := newTool(t)
	// Static part too big for the fabric left over by the pblocks.
	static := &SynthCheckpoint{Name: "static", Resources: fpga.NewResources(290000, 0, 0, 0)}
	pblocks := map[string]fpga.Pblock{
		"rp1": {Name: "rp1", X0: 0, Y0: 0, X1: 7, Y1: 3}, // half the device
	}
	if _, err := tool.PreRouteStatic(context.Background(), "soc", static, pblocks, fpga.Resources{}); err == nil {
		t.Fatal("over-capacity design accepted")
	}
}

func TestImplementSerial(t *testing.T) {
	tool := newTool(t)
	res, err := tool.ImplementSerial(context.Background(), "soc", fpga.NewResources(200000, 0, 0, 0), 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	if _, err := tool.ImplementSerial(context.Background(), "soc", fpga.Resources{}, 0, 0); err == nil {
		t.Fatal("empty design implemented")
	}
	if _, err := tool.ImplementSerial(context.Background(), "soc", fpga.NewResources(400000, 0, 0, 0), 0, 0); err == nil {
		t.Fatal("over-capacity design implemented")
	}
}

func TestImplementInContext(t *testing.T) {
	tool := newTool(t)
	static := &SynthCheckpoint{Name: "static", Resources: fpga.NewResources(80000, 0, 0, 0)}
	pblocks := map[string]fpga.Pblock{
		"rp1": {Name: "rp1", X0: 0, Y0: 1, X1: 3, Y1: 2},
	}
	rs, err := tool.PreRouteStatic(context.Background(), "soc", static, pblocks, fpga.NewResources(30000, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cks := map[string]*SynthCheckpoint{
		"rp1": {Name: "rp1", Resources: fpga.NewResources(30000, 0, 0, 0)},
	}
	cr, err := tool.ImplementInContext(context.Background(), rs, []string{"rp1"}, cks)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Runtime <= 0 {
		t.Fatal("in-context run took no time")
	}
	// Unknown partition, missing checkpoint, oversized module.
	if _, err := tool.ImplementInContext(context.Background(), rs, []string{"ghost"}, cks); err == nil {
		t.Fatal("unknown partition accepted")
	}
	cks["rp1"].Resources = fpga.NewResources(400000, 0, 0, 0)
	if _, err := tool.ImplementInContext(context.Background(), rs, []string{"rp1"}, cks); err == nil {
		t.Fatal("module larger than its pblock accepted")
	}
	if _, err := tool.ImplementInContext(context.Background(), nil, []string{"rp1"}, cks); err == nil {
		t.Fatal("nil routed static accepted")
	}
	if _, err := tool.ImplementInContext(context.Background(), rs, nil, cks); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestBitstreams(t *testing.T) {
	tool := newTool(t)
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 3, Y1: 1}
	bs, tm, err := tool.WritePartialBitstream(context.Background(), "x.pbs", pb, fpga.NewResources(30000, 0, 0, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Size() <= 0 || tm <= 0 {
		t.Fatal("degenerate partial bitstream")
	}
	if bs.CompressionRatio() < 2 {
		t.Fatalf("compression ineffective: %.2fx", bs.CompressionRatio())
	}
	im := tool.FullImage("x.bit", fpga.NewResources(150000, 0, 0, 0), true)
	full, _, err := tool.AssembleFullBitstream(context.Background(), im, make([]bitstream.Chunk, 2))
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() <= bs.Size() {
		t.Fatal("full bitstream smaller than a partial")
	}
}

func TestUtilizationReport(t *testing.T) {
	tool := newTool(t)
	rep := tool.UtilizationReport("SOC_2", fpga.NewResources(151800, 0, 515, 1400))
	for _, want := range []string{"SOC_2", "xc7vx485t", "50.0%", "LUT", "BRAM"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
