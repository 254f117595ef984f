package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"presp/internal/experiments"
	"presp/internal/flow"
	"presp/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current program")

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// runCommand runs the benchmark in process and decodes its last line.
func runCommand(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: last line: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, w.Name)
			continue
		}
		if m.Unit == "" || m.Unit != w.Unit {
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload untraced, and
// one traced run, on the default seed. A traced run replays each
// workload's untraced operations with observation on and is correct
// only if both produce identical output digests, so observation stays
// one-way. Every metric BENCHMARK.json names must be printed, with its
// unit, and every per-layer time must be measured.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runCommand(t, "--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", "0")
			checkMetrics(t, w.Name, res.Metrics, b.EndToEnd)
			for _, def := range b.EndToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, def.Name, res.Metrics[def.Name].Value)
				}
			}
		})
	}
	// A traced run measures every workload, whichever is requested.
	res := runCommand(t, "--workload", "serve-mixed", "--seed", "1", "--trace", "1", "--out-dir", t.TempDir())
	checkMetrics(t, "traced", res.Metrics, b.PerLayer)
	for _, def := range perLayer {
		if def.unit == "ms" && res.Metrics[def.name].Value <= 0 {
			t.Errorf("per-layer time %s = %v, want > 0 on its home workload", def.name, res.Metrics[def.name].Value)
		}
	}
}

// TestUnknownWorkloadFails checks that a bad invocation exits non-zero
// without printing a result line.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestSelfTime(t *testing.T) {
	jobs := []span{{ts: 10, dur: 20}, {ts: 15, dur: 10}, {ts: 40, dur: 5}, {ts: 95, dur: 20}}
	// Disjoint parents: the union of the jobs inside each is subtracted.
	if got := selfTime([]span{{ts: 0, dur: 50}, {ts: 90, dur: 10}}, jobs); got != 60-25-5 {
		t.Errorf("disjoint parents: self %d, want %d", got, 60-25-5)
	}
	// Overlapping parents: children are subtracted in aggregate.
	if got := selfTime([]span{{ts: 0, dur: 50}, {ts: 30, dur: 100}}, jobs); got != 150-55 {
		t.Errorf("overlapping parents: self %d, want %d", got, 150-55)
	}
}

func TestStealFrac(t *testing.T) {
	before, after := cpuTimes{busy: 1000, steal: 100}, cpuTimes{busy: 1300, steal: 200}
	if got := stealFrac(before, after); got != 0.25 {
		t.Errorf("steal share %v, want 0.25", got)
	}
	// No wanted time, or counters that went backwards: no steal.
	if got := stealFrac(before, before); got != 0 {
		t.Errorf("empty interval: steal share %v, want 0", got)
	}
	if got := stealFrac(after, before); got != 0 {
		t.Errorf("reversed counters: steal share %v, want 0", got)
	}
}

// TestGolden regenerates golden.json with -update: every flow-cold
// design, every serve-mixed spec (through the server, as the workload
// submits it) and every runtime-wami (SoC, scene) batch.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate golden.json")
	}
	g := golden{Flow: map[string]string{}, Specs: map[string]string{}, WAMI: map[string][]frameRef{}}
	e := &env{dir: t.TempDir()}
	f := &flowCold{e: e}

	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	presets := experiments.PresetNames()
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for k := part; k < len(presets)*flowVariants; k += 2 {
				p, v := presets[k/flowVariants], k%flowVariants
				d, err := perturbedDesign(p, v)
				if err != nil {
					errs <- err
					return
				}
				opt := f.options()
				opt.Workers = 1
				res, err := flow.RunPRESP(context.Background(), d, opt)
				if err != nil {
					errs <- fmt.Errorf("%s#%d: %w", p, v, err)
					return
				}
				mu.Lock()
				g.Flow[fmt.Sprintf("%s#%d", p, v)] = resultDigest(float64(res.Total), crcList(flowImages(res)))
				mu.Unlock()
			}
		}(part)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var space []server.Spec
	for _, p := range presets {
		strat, base, timingOnly, err := presetSpecs(p)
		if err != nil {
			t.Fatal(err)
		}
		space = append(append(append(space, strat...), base...), timingOnly...)
	}
	srv := server.New(server.Config{Workers: 2, JobWorkers: 1, NoStageCache: true, QueueDepth: len(space)})
	defer srv.Shutdown(context.Background())
	ids := make([]string, len(space))
	for k, spec := range space {
		v, err := srv.Submit("golden", spec)
		if err != nil {
			t.Fatalf("%s: %v", specKey(spec), err)
		}
		ids[k] = v.ID
	}
	for k, spec := range space {
		for {
			v, err := srv.Get("golden", ids[k])
			if err != nil {
				t.Fatal(err)
			}
			if v.State == server.StateQueued || v.State == server.StateRunning {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if v.State != server.StateSucceeded {
				t.Fatalf("%s: %s: %s", specKey(spec), v.State, v.Error)
			}
			g.Specs[specKey(spec)] = resultDigest(v.Result.TotalMin, v.Result.BitstreamCRCs)
			break
		}
	}

	in, err := setupRuntimeWAMI(e)
	if err != nil {
		t.Fatal(err)
	}
	w := in.(*runtimeWAMI)
	for _, s := range w.socs {
		for sc := range wamiScenes {
			frames, err := w.batch(s, wamiScenes[sc])
			if err != nil {
				t.Fatal(err)
			}
			g.WAMI[fmt.Sprintf("%s#%d", s.name, sc)] = frames
		}
	}

	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
