package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"presp/internal/obs"
)

// workload describes one benchmark workload.
type workload struct {
	name string
	// clients is the number of closed-loop clients: each sends its next
	// operation only after the previous one completed.
	clients int
	// prefixOps is the fixed operation count of a traced run and of the
	// retained-heap probe, so both cover identical work on every run.
	prefixOps int
	setup     func(e *env) (instance, error)
}

// serve-mixed's prefix is 11 blocks: two cold rounds over the 11 presets.
var workloads = map[string]workload{
	"flow-cold":    {name: "flow-cold", clients: 1, prefixOps: 22, setup: setupFlowCold},
	"serve-mixed":  {name: "serve-mixed", clients: 2, prefixOps: 11 * serveBlock, setup: setupServeMixed},
	"runtime-wami": {name: "runtime-wami", clients: 1, prefixOps: 45, setup: setupRuntimeWAMI},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance is one set-up of a workload.
type instance interface {
	// op runs stream element i for client c and returns one outcome per
	// job it issued. It must be safe to call from every client at once.
	op(c, i int) []outcome
	// layers reports the per-layer metrics of a traced phase from the
	// trace events and the layers' public counters.
	layers(events []obs.Event, set func(name string, v float64))
	close() error
}

// env is what a workload set-up receives: the seed, a scratch
// directory, the committed references and, in a traced run, the
// observer that collects program and benchmark spans.
type env struct {
	seed   int64
	dir    string
	golden *golden
	obs    *obs.Observer
	log    io.Writer
}

func (e *env) tracer() *obs.Tracer { return e.obs.Tracer() }

// benchLaneBase is the first trace lane of benchmark spans, clear of the
// flow scheduler's worker lanes and the server's flight lanes.
const benchLaneBase = 1 << 22

func benchLane(c int) int { return benchLaneBase + c }

var noSpan = func() {}

// span opens a benchmark span around one call into a layer; the
// returned func closes it. Untraced runs get a shared no-op.
func (e *env) span(name string, lane int) func() {
	tr := e.tracer()
	if tr == nil {
		return noSpan
	}
	start := tr.Now()
	return func() { tr.Complete("bench", name, lane, start, tr.Now()-start, nil) }
}

// outcome is the result of one job: its host latency and a fingerprint
// of its checked outputs.
type outcome struct {
	ms     float64
	digest string
	err    error
}

// mismatchError marks an operation whose outputs differ from the
// references: such a run is not correct, whatever its speed.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "output mismatch: " + e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// phase is one measured stretch of operations.
type phase struct {
	ops        [][]outcome // by stream index; indices 0..len-1 all ran
	wall       time.Duration
	steal      float64 // share of wanted CPU time the hypervisor withheld
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64
	allCPU     float64
}

// runPhase drives the instance with its closed-loop clients until the
// deadline passes (maxOps == 0) or maxOps operations have run. Clients
// claim stream indices in order and finish every index they claim, so
// the completed set is always a prefix of the stream.
func runPhase(in instance, clients int, deadline time.Time, maxOps int) *phase {
	var next atomic.Int64
	var mu sync.Mutex
	done := make(map[int][]outcome)
	before := sampleProcess()
	sw := startStopwatch()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					return
				}
				out := in.op(c, i)
				mu.Lock()
				done[i] = out
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{}
	ph.wall, ph.steal = sw.stop()
	after := sampleProcess()
	ph.cpu = after.cpu - before.cpu
	ph.allocBytes = after.alloc - before.alloc
	ph.gcCPU = after.gcCPU - before.gcCPU
	ph.allCPU = after.allCPU - before.allCPU
	ph.ops = make([][]outcome, len(done))
	for i := range ph.ops {
		ph.ops[i] = done[i]
	}
	return ph
}

func (ph *phase) each(fn func(o outcome)) {
	for _, outs := range ph.ops {
		for _, o := range outs {
			fn(o)
		}
	}
}

func (ph *phase) attempted() int {
	n := 0
	ph.each(func(outcome) { n++ })
	return n
}

func (ph *phase) failed() int {
	n := 0
	ph.each(func(o outcome) {
		if o.err != nil {
			n++
		}
	})
	return n
}

func (ph *phase) mismatches() int {
	n := 0
	ph.each(func(o outcome) {
		var me *mismatchError
		if errors.As(o.err, &me) {
			n++
		}
	})
	return n
}

func (ph *phase) firstMismatch() error {
	var first error
	ph.each(func(o outcome) {
		var me *mismatchError
		if first == nil && errors.As(o.err, &me) {
			first = o.err
		}
	})
	return first
}

// latencies lists every job's host latency; a failed or refused job
// counts as slower than any completed one.
func (ph *phase) latencies() []float64 {
	var xs []float64
	ph.each(func(o outcome) {
		if o.err != nil {
			xs = append(xs, inf)
			return
		}
		xs = append(xs, o.ms)
	})
	return xs
}

// netLatencies lists every job's host latency net of steal (steal.go),
// with failed jobs as in latencies.
func (ph *phase) netLatencies() []float64 {
	xs := ph.latencies()
	for i := range xs {
		xs[i] *= 1 - ph.steal
	}
	return xs
}

// netSeconds is the phase's wall time net of steal.
func (ph *phase) netSeconds() float64 { return ph.wall.Seconds() * (1 - ph.steal) }

// digest fingerprints every output of the phase in stream order.
func (ph *phase) digest() string {
	var b []byte
	for i, outs := range ph.ops {
		for _, o := range outs {
			b = fmt.Appendf(b, "%d:%s\n", i, o.digest)
		}
	}
	return digestOf(string(b))
}

func (ph *phase) gcCPUFrac() float64 {
	if ph.allCPU <= 0 {
		return 0
	}
	return ph.gcCPU / ph.allCPU
}

func (ph *phase) logFailures(w io.Writer) {
	shown := 0
	ph.each(func(o outcome) {
		if o.err != nil && shown < 5 {
			fmt.Fprintf(w, "perfbench: failed op: %v\n", o.err)
			shown++
		}
	})
}

// processSample is a snapshot of the process counters a phase differences.
type processSample struct {
	cpu           time.Duration // user + system time
	alloc         uint64        // cumulative heap bytes allocated
	gcCPU, allCPU float64       // runtime/metrics CPU-class estimates, seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProcess() processSample {
	var s processSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	return s
}

// retainedHeapMB is the live heap after forced collections: what the
// workload's caches and state hold on to.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
