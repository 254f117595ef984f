package bitstream

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"presp/internal/fpga"
)

func TestGeneratorDeterministic(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 3, Y1: 1}
	a, err := g.Partial("x", pb, 30000, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Partial("x", pb, 30000, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("same name/pblock/usage must generate identical bitstreams")
	}
	c, err := g.Partial("y", pb, 30000, true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Data, c.Data) {
		t.Fatal("different modules should differ in content")
	}
}

func TestPartialSizeTracksUtilization(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 7, Y1: 1}
	sparse, err := g.Partial("s", pb, 5000, true)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := g.Partial("d", pb, 80000, true)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Size() <= sparse.Size() {
		t.Fatalf("denser logic should compress worse: %d vs %d", sparse.Size(), dense.Size())
	}
	if sparse.RawBytes != dense.RawBytes {
		t.Fatal("same pblock must have the same raw size")
	}
}

func TestPartialSizesInPaperRange(t *testing.T) {
	// The evaluation's reconfigurable regions produce compressed partial
	// bitstreams of a few hundred KB (Table VI reports 245-397 KB).
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 7, Y1: 0} // 8 cells ~ a WAMI region
	bs, err := g.Partial("wami", pb, 34000, true)
	if err != nil {
		t.Fatal(err)
	}
	kb := bs.SizeKB()
	if kb < 100 || kb > 800 {
		t.Fatalf("partial bitstream %f KB outside plausible range", kb)
	}
}

func TestUncompressedPartial(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 3, Y1: 1}
	bs, err := g.Partial("x", pb, 30000, false)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Compressed || bs.Size() != bs.RawBytes {
		t.Fatal("uncompressed bitstream should equal its raw size")
	}
	if bs.CompressionRatio() != 1 {
		t.Fatalf("uncompressed ratio: got %g", bs.CompressionRatio())
	}
}

func TestFullDeviceBitstream(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	full := g.FullImage("soc.bit", 150000, false).Assemble(make([]Chunk, 4))
	if full.Kind != Full {
		t.Fatal("wrong kind")
	}
	// The whole xc7vx485t image is ~20 MB; the model must be the same
	// order of magnitude.
	if full.RawBytes < 5<<20 || full.RawBytes > 80<<20 {
		t.Fatalf("full bitstream raw size %d implausible", full.RawBytes)
	}
}

func TestPartialRejectsEmptyPblock(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "inv", X0: 2, Y0: 2, X1: 1, Y1: 1}
	if _, err := g.Partial("x", pb, 100, true); err == nil {
		t.Fatal("inverted pblock accepted")
	}
}

func TestKindString(t *testing.T) {
	if Full.String() != "full" || Partial.String() != "partial" {
		t.Fatal("kind names wrong")
	}
}

func TestChecksumRecordedAndVerifies(t *testing.T) {
	dev, err := fpga.ByBoard("VC707")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(dev)
	pb := fpga.Pblock{Name: "pb", X0: 0, Y0: 0, X1: 3, Y1: 3}
	for _, compress := range []bool{true, false} {
		bs, err := g.Partial("tb.rt_1.fft.pbs", pb, 1000, compress)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Checksum == 0 {
			t.Fatalf("compress=%v: no checksum recorded", compress)
		}
		if bs.Checksum != bs.CRC() {
			t.Fatalf("compress=%v: checksum does not match payload", compress)
		}
		if err := bs.Verify(); err != nil {
			t.Fatalf("compress=%v: pristine image fails verification: %v", compress, err)
		}
	}
	full := g.FullImage("tb.bit", 10000, true).Assemble(make([]Chunk, 4))
	if full.Checksum == 0 || full.Verify() != nil {
		t.Fatal("full-device bitstream not checksummed")
	}
}

func TestCorruptedCopyFailsVerification(t *testing.T) {
	dev, err := fpga.ByBoard("VC707")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(dev)
	pb := fpga.Pblock{Name: "pb", X0: 0, Y0: 0, X1: 3, Y1: 3}
	bs, err := g.Partial("tb.rt_1.gemm.pbs", pb, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 1, len(bs.Data) - 1, len(bs.Data) * 3, -7} {
		bad := bs.CorruptedCopy(off)
		if err := bad.Verify(); err == nil {
			t.Fatalf("offset %d: corrupted image passed verification", off)
		}
	}
	// The original is untouched.
	if err := bs.Verify(); err != nil {
		t.Fatalf("corruption leaked into the original: %v", err)
	}
	// Unchecksummed images skip verification (hand-built test images).
	plain := &Bitstream{Name: "raw", Kind: Partial, Data: []byte{1, 2, 3}}
	if err := plain.Verify(); err != nil {
		t.Fatalf("unchecksummed image rejected: %v", err)
	}
}

// TestConcurrentGeneration shares one Generator across goroutines, as
// the flow's bitgen jobs do: each image must match its serial twin, so
// no two calls may share an encoder's scratch output.
func TestConcurrentGeneration(t *testing.T) {
	g := NewGenerator(fpga.VC707())
	pb := fpga.Pblock{Name: "p", X0: 0, Y0: 0, X1: 1, Y1: 0}
	const n = 8
	want := make([]*Bitstream, n)
	for i := range want {
		bs, err := g.Partial(fmt.Sprintf("m%d", i), pb, 2000*(i+1), true)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				bs, err := g.Partial(fmt.Sprintf("m%d", i), pb, 2000*(i+1), true)
				if err != nil || !bytes.Equal(bs.Data, want[i].Data) {
					t.Errorf("image %d differs under concurrent generation (err %v)", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
