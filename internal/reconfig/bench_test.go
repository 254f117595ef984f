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
