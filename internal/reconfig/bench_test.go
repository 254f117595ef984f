package reconfig

import "testing"

// BenchmarkReconfigure measures the manager's swap path in host time:
// fault-free partial reconfigurations that alternate one tile between
// two registered images, each the full decouple, DMA fetch, ICAP and
// recouple sequence on the simulated SoC. reconfigs/s is swaps per host
// second.
func BenchmarkReconfigure(b *testing.B) {
	tb := newTestbed(b)
	accs := [2]string{"gemm", "sort"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reconfigureSync(tb, "rt_1", accs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reconfigs/s")
}

// BenchmarkInvoke measures the manager's invocation path in host time:
// fault-free calls to the accelerator already loaded on one tile, each
// the configuration writes, DMA load, execution, DMA store and
// completion interrupt on the simulated SoC, with no swap. The 4-point
// input keeps the kernel itself negligible, so the number is the
// manager's, NoC's and simulation engine's bookkeeping per call.
// invocations/s is calls per host second.
func BenchmarkInvoke(b *testing.B) {
	tb := newTestbed(b)
	in := [][]float64{{1, 0, 0, 0}}
	var res *InvokeResult
	var ierr error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = nil
		tb.rt.InvokeOn("rt_1", "fft", in, func(r *InvokeResult, err error) { res, ierr = r, err })
		tb.drain()
		if ierr != nil {
			b.Fatal(ierr)
		}
		if res == nil || res.Reconfigured || res.OnCPU {
			b.Fatalf("invocation %d: %+v", i, res)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invocations/s")
}
