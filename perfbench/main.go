// Command perfbench is the repository benchmark. One command runs one
// of three seeded, single-process workloads against the public APIs of
// the flow engine, the job server and the DPR runtime, checks every
// operation's outputs against committed references, and prints every
// metric by name with its unit:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured without observation. With --trace 1 the same fixed operation
// prefix runs twice, untraced and then traced (the benchmark's own spans
// around each call into a layer plus the obs.Observer job spans), and the
// line carries the per-layer metrics; the two runs must produce identical
// output digests. The traced spans are written as one Chrome trace file.
//
// Every time reported is host time; end-to-end times are net of
// hypervisor steal (steal.go). Modelled CAD minutes, simulated
// seconds and joules are outputs the benchmark checks, never metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"presp/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: flow-cold, serve-mixed or runtime-wami")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured duration of an untraced run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.outDir, "out-dir", ".", "directory for the Chrome trace file of a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{seed: o.seed, dir: os.TempDir(), golden: g, log: stderr}
	var res *result
	if o.trace {
		res, err = runTraced(workloads[o.workload], e, o.outDir)
	} else {
		res, err = runEndToEnd(workloads[o.workload], e, time.Duration(o.seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupRepeats is how many times an end-to-end run sets its workload
// up; setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 3

// runEndToEnd measures the untraced end-to-end metrics. The first
// set-up runs the workload's fixed operation prefix and measures the
// heap it retains (independent of run length, so a faster program is
// not charged for the extra state it accumulates in a timed run); the
// last set-up serves the timed run.
func runEndToEnd(w workload, e *env, d time.Duration) (*result, error) {
	setups := make([]float64, 0, setupRepeats)
	var retainedMB float64
	var inst instance
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		sw := startStopwatch()
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.netSeconds())
		if k == 0 {
			ph := runPhase(in, w.clients, time.Time{}, w.prefixOps)
			if err := ph.firstMismatch(); err != nil {
				in.close()
				return nil, err
			}
			retainedMB = retainedHeapMB()
		}
		if k < setupRepeats-1 {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		inst = in
	}
	runtime.GC()
	ph := runPhase(inst, w.clients, time.Now().Add(d), 0)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	ph.logFailures(e.log)

	m := map[string]metric{}
	for _, def := range endToEnd {
		m[def.name] = metric{Unit: def.unit}
	}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: m[name].Unit} }
	lat := ph.netLatencies()
	ops := float64(ph.attempted())
	set("op_ms_p50", percentile(lat, 0.50))
	set("op_ms_p95", percentile(lat, 0.95))
	set("ops_per_s", float64(ph.attempted()-ph.failed())/ph.netSeconds())
	set("cpu_ms_per_op", ph.cpu.Seconds()*1e3/ops)
	set("alloc_mb_per_op", float64(ph.allocBytes)/1e6/ops)
	set("retained_heap_mb", retainedMB)
	set("success_rate", 1-float64(ph.failed())/ops)
	set("setup_s", median(setups))
	return &result{Correct: ph.mismatches() == 0, Attempted: ph.attempted(), Failed: ph.failed(), Metrics: m}, nil
}

// traceOrder is the order a traced run measures the workloads in.
var traceOrder = []string{homeFlow, homeServe, homeRuntime}

// runTraced measures the per-layer metrics. Each metric lives on its
// home workload — the one that loads the layer — so a traced run covers
// every workload: for each, it runs the fixed operation prefix twice on
// fresh set-ups, first untraced and then traced, and keeps the layer
// metrics homed there. go.gc_cpu_frac and trace.overhead_pct come from
// the requested workload. Observation must be one-way: each pair of runs
// must produce identical output digests, or the run is not correct. All
// spans go to one observer and one Chrome trace file.
func runTraced(sel workload, e *env, outDir string) (*result, error) {
	te := *e
	te.obs = obs.New()
	te.tracer().SetProcessName("perfbench")
	m := map[string]metric{}
	for _, def := range perLayer {
		m[def.name] = metric{Unit: def.unit}
	}
	res := &result{Correct: true, Metrics: m}
	for _, name := range traceOrder {
		w := workloads[name]
		set := func(key string, v float64) {
			for _, def := range perLayer {
				if def.name == key && (def.home == name || def.home == "" && name == sel.name) {
					m[key] = metric{Value: v, Unit: def.unit}
				}
			}
		}
		from := te.tracer().Now()
		ph0, ph1, err := tracedPair(w, e, &te, set)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printSpanTable(e.log, name, perLayerRows(eventsBetween(te.tracer().Events(), from, te.tracer().Now())))
		if name == sel.name {
			set("go.gc_cpu_frac", ph1.gcCPUFrac())
			set("trace.overhead_pct", (percentile(ph1.netLatencies(), 0.5)/percentile(ph0.netLatencies(), 0.5)-1)*100)
			set("host.steal_frac", ph1.steal)
		}
		res.Attempted += ph0.attempted() + ph1.attempted()
		res.Failed += ph0.failed() + ph1.failed()
		if ph0.mismatches() > 0 || ph1.mismatches() > 0 {
			res.Correct = false
		}
		if d0, d1 := ph0.digest(), ph1.digest(); d0 != d1 {
			fmt.Fprintf(e.log, "perfbench: %s: traced output digest %s differs from untraced %s\n", name, d1, d0)
			res.Correct = false
		}
	}

	events := te.tracer().Events()
	printLayerMetrics(e.log, m)
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", sel.name, e.seed))
	if err := writeTrace(path, te.tracer()); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "perfbench: wrote %s (%d events)\n", path, len(events))
	return res, nil
}

// tracedPair runs w's operation prefix untraced and then traced on
// fresh set-ups, and reports the traced run's layer metrics to set.
func tracedPair(w workload, plainEnv, tracedEnv *env, set func(string, float64)) (ph0, ph1 *phase, err error) {
	plain, err := w.setup(plainEnv)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	ph0 = runPhase(plain, w.clients, time.Time{}, w.prefixOps)
	if err := plain.close(); err != nil {
		return nil, nil, fmt.Errorf("tear-down: %w", err)
	}
	traced, err := w.setup(tracedEnv)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	ph1 = runPhase(traced, w.clients, time.Time{}, w.prefixOps)
	ph1.logFailures(plainEnv.log)
	traced.layers(tracedEnv.tracer().Events(), set)
	if err := traced.close(); err != nil {
		return nil, nil, fmt.Errorf("tear-down: %w", err)
	}
	return ph0, ph1, nil
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

var inf = math.Inf(1)

// percentile returns the q-quantile of xs by the nearest-rank rule.
// Failed operations enter as +Inf; a quantile that lands on one is
// reported as the largest float so the JSON stays valid.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if math.IsInf(s[i], 1) {
		return math.MaxFloat64
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digestOf fingerprints a canonical output string.
func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}
