// Runtime reconfiguration: drive the Section V software stack by hand —
// stage partial bitstreams for one reconfigurable tile, swap
// accelerators through the manager's workqueue, invoke them on real
// data, and watch the decoupling / driver-swap / interrupt sequence in
// virtual time.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"presp"
)

func main() {
	p, err := presp.NewPlatform("VC707")
	if err != nil {
		log.Fatal(err)
	}

	// One reconfigurable tile that will host three different
	// accelerators over its lifetime.
	cfg := &presp.Config{
		Name: "runtime-demo", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []presp.Tile{
			{Name: "cpu0", Kind: presp.TileCPU, Pos: presp.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: presp.TileMem, Pos: presp.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: presp.TileAux, Pos: presp.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: presp.TileReconf, AccelName: "fft", Pos: presp.Coord{X: 1, Y: 1}},
		},
	}
	soc, err := p.BuildSoC(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := p.NewRuntime(soc)
	if err != nil {
		log.Fatal(err)
	}

	// Stage one partial bitstream per accelerator the tile will host
	// (mmapped in user space, copied to kernel memory by the manager).
	accs := []string{"fft", "gemm", "sort"}
	bss, err := p.StageBitstreams(context.Background(), rt, map[string][]string{"rt_1": accs}, true)
	if err != nil {
		log.Fatal(err)
	}
	for _, acc := range accs {
		bs := bss["rt_1"][acc]
		fmt.Printf("staged %-5s bitstream: %6.0f KB (%.1fx compressed)\n", acc, bs.SizeKB(), bs.CompressionRatio())
	}

	// 1. FFT of an 8-sample impulse: flat unit spectrum.
	res, err := rt.Invoke("rt_1", "fft", [][]float64{{1, 0, 0, 0, 0, 0, 0, 0}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfft(impulse) re/im pairs: %.0f (loaded at boot: reconfigured=%v, took %v)\n",
		res.Out[0][:6], res.Reconfigured, res.End-res.Start)

	// 2. Swap to GEMM — the manager waits for the tile to drain, locks
	// the device, decouples, programs through the ICAP, swaps drivers.
	a := []float64{1, 2, 3, 4} // 2x2
	b := []float64{5, 6, 7, 8}
	res, err = rt.Invoke("rt_1", "gemm", [][]float64{a, b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gemm([1 2;3 4],[5 6;7 8]) = %.0f (reconfigured=%v, took %v)\n",
		res.Out[0], res.Reconfigured, res.End-res.Start)
	if loaded, _ := rt.Manager.Loaded("rt_1"); loaded != "gemm" {
		log.Fatalf("expected gemm loaded, found %q", loaded)
	}
	if drv, _ := rt.Manager.Driver("rt_1"); drv != "gemm" {
		log.Fatalf("expected gemm driver bound, found %q", drv)
	}

	// 3. Swap to the sorter.
	res, err = rt.Invoke("rt_1", "sort", [][]float64{{3, 1, 4, 1, 5, 9, 2, 6}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sort([3 1 4 1 5 9 2 6]) = %.0f (reconfigured=%v)\n", res.Out[0], res.Reconfigured)
	for i := 1; i < len(res.Out[0]); i++ {
		if res.Out[0][i] < res.Out[0][i-1] {
			log.Fatal("sorter output not sorted")
		}
	}

	// 4. Back to the FFT — and verify Parseval's identity functionally.
	sig := []float64{0.5, -1, 2, 0.25, -0.75, 1.5, -0.125, 0.875}
	res, err = rt.Invoke("rt_1", "fft", [][]float64{sig})
	if err != nil {
		log.Fatal(err)
	}
	var t, f float64
	for _, v := range sig {
		t += v * v
	}
	for i := 0; i < len(res.Out[0]); i += 2 {
		f += res.Out[0][i]*res.Out[0][i] + res.Out[0][i+1]*res.Out[0][i+1]
	}
	f /= float64(len(sig))
	if math.Abs(t-f) > 1e-9 {
		log.Fatalf("Parseval violated: %g vs %g", t, f)
	}
	fmt.Printf("fft round 2: Parseval holds (%.6f == %.6f)\n", t, f)

	st := rt.Manager.Stats()
	fmt.Printf("\nruntime stats: %d reconfigurations (%v total), %d invocations, %d KB configured\n",
		st.Reconfigurations, st.ReconfigTime, st.Invocations, st.BytesConfigured/1024)
	fmt.Printf("virtual time elapsed: %v; energy consumed: %.3f J\n",
		rt.Engine.Now(), rt.Manager.Meter().TotalEnergy())

	// 5. Fault storm: rerun the same SoC with injected hardware faults
	// and watch the recovery machinery hold the line. The plan injects a
	// one-shot ICAP programming error (absorbed by a retry), a seeded
	// 30% corruption rate on bitstream fetches (caught by the CRC check
	// and retried), and finally a persistent decoupler fault that kills
	// the tile — after which invocations transparently degrade to the
	// processor.
	fmt.Println("\n--- fault storm ---")
	plan, err := presp.ParseFaultPlan("seed=11,icap@rt_1:count=1,crc=0.3,decouple@rt_1:after=4:count=-1")
	if err != nil {
		log.Fatal(err)
	}
	fcfg := presp.DefaultRuntimeConfig()
	fcfg.FaultPlan = plan
	fcfg.MaxReconfigRetries = 2
	fcfg.TileDeadThreshold = 2
	frt, err := p.NewRuntimeWithConfig(soc, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.StageBitstreams(context.Background(), frt, map[string][]string{
		"rt_1": {"fft", "gemm", "sort"},
	}, true); err != nil {
		log.Fatal(err)
	}
	inputs := map[string][][]float64{
		"fft":  {{1, 0, 0, 0, 0, 0, 0, 0}},
		"gemm": {{1, 0, 0, 1}, {4, 2, 8, 6}},
		"sort": {{4, 2, 8, 6}},
	}
	for _, acc := range []string{"gemm", "sort", "fft", "gemm", "sort", "fft", "gemm"} {
		res, err := frt.Invoke("rt_1", acc, inputs[acc])
		switch {
		case err != nil:
			fmt.Printf("  %-5s failed: %v\n", acc, err)
		case res.OnCPU:
			fmt.Printf("  %-5s degraded to CPU: out=%.0f (took %v)\n", acc, res.Out[0], res.End-res.Start)
		default:
			fmt.Printf("  %-5s on tile: out=%.0f (reconfigured=%v)\n", acc, res.Out[0], res.Reconfigured)
		}
	}
	fst := frt.Manager.Stats()
	fmt.Printf("storm stats: %d faults injected; %d retries, %d failed reconfigs, %d dead tiles, %d CPU fallbacks\n",
		frt.Manager.FaultsInjected(), fst.Retries, fst.FailedReconfigs, fst.DeadTiles, fst.CPUFallbacks)
	if dead, _ := frt.Manager.Dead("rt_1"); dead {
		fmt.Println("tile rt_1 is dead, re-coupled and powered down; the SoC kept computing")
	}

	// 6. SEU storm: radiation flips bits in the tile's configuration
	// memory while the application runs. The readback scrubber sweeps the
	// config memory every ScrubInterval of virtual time, compares each
	// tile's readback CRC against the golden partial bitstream, and
	// repairs mismatches by re-writing the golden image through the same
	// decouple/ICAP/recouple path a demand swap uses. Every invocation
	// below must still return correct results — that is the point.
	fmt.Println("\n--- SEU storm + scrubber ---")
	splan, err := presp.ParseFaultPlan("seed=7,seu@rt_1=0.05")
	if err != nil {
		log.Fatal(err)
	}
	scfg := presp.DefaultRuntimeConfig()
	scfg.FaultPlan = splan
	scfg.ScrubInterval = 200 * time.Microsecond
	scfg.SEUCheckInterval = 2 * time.Microsecond
	srt, err := p.NewRuntimeWithConfig(soc, scfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.StageBitstreams(context.Background(), srt, map[string][]string{
		"rt_1": {"fft", "gemm", "sort"},
	}, true); err != nil {
		log.Fatal(err)
	}
	// A long run of sort invocations keeps the accelerator resident —
	// SEUs only strike a programmed partition, and a tile that swaps on
	// every call spends its life being rewritten by the ICAP anyway.
	work := make([]float64, 64)
	for i := range work {
		work[i] = float64((i*37)%64) - 31
	}
	for i := 0; i < 60; i++ {
		res, err := srt.Invoke("rt_1", "sort", [][]float64{work})
		if err != nil {
			log.Fatalf("invocation under SEU storm failed: %v", err)
		}
		for j := 1; j < len(res.Out[0]); j++ {
			if res.Out[0][j] < res.Out[0][j-1] {
				log.Fatal("sorter output corrupted under SEU storm")
			}
		}
	}
	// Invoke stops driving the engine the moment its own result lands; a
	// repair detected near the end may still be mid-ICAP. Drain the
	// remaining events so the scrubber finishes its work.
	srt.Engine.Run(0)
	ss := srt.Manager.ScrubStats()
	if ss.Upsets == 0 {
		log.Fatal("storm injected no upsets — the demo should show the scrubber working")
	}
	fmt.Printf("scrubber: %d upsets injected over %d scrub cycles; %d detected, %d repaired, %d healed by swaps, %d uncorrectable\n",
		ss.Upsets, ss.Cycles, ss.Detected, ss.Repaired, ss.Healed, ss.Uncorrectable)
	h, err := srt.Manager.ConfigHealth("rt_1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rt_1 config memory: loaded=%s frames=%d corrupted=%v (readback CRC %08x vs golden %08x)\n",
		h.Loaded, h.Frames, h.Corrupted, h.ReadbackCRC, h.GoldenCRC)
	fmt.Println("all 60 invocations returned correct results under the storm")
}
