// Command presp-benchjson converts `go test -bench` output on stdin
// into a stable JSON document on stdout, so benchmark numbers can be
// committed and diffed (make bench-smoke writes BENCH_flow.json,
// BENCH_bitstream.json and BENCH_wami.json with it). Non-benchmark
// lines pass through to stderr, keeping the test summary visible in CI
// logs.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Runs is the iteration count the framework settled on.
	Runs int64 `json:"runs"`
	// NsPerOp is the reported time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other reported unit: MB/s from SetBytes and
	// the benchmark's own b.ReportMetric values (e.g. reconfigs/s).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseBenchLine parses one `go test -bench` result line, reporting
// ok=false for any other line.
//
//	BenchmarkX-8   4   261 ns/op   12 B/op   3 allocs/op
func parseBenchLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Runs: runs, NsPerOp: ns}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name = r.Name[:i]
		}
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// convert reads bench output from r, writes the JSON document to out
// and passes non-benchmark lines through to passthrough.
func convert(r io.Reader, out, passthrough io.Writer) error {
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if res, ok := parseBenchLine(sc.Text()); ok {
			results = append(results, res)
			continue
		}
		fmt.Fprintln(passthrough, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	// Stable output: sorted by name, so reruns diff cleanly.
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string][]Result{"benchmarks": results})
}

func main() {
	if err := convert(os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "presp-benchjson:", err)
		os.Exit(1)
	}
}
