package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkEvaluateStrategyCold-8   \t       2\t  26123456 ns/op\t 8123456 B/op\t   91234 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkEvaluateStrategyCold" || r.Runs != 2 || r.NsPerOp != 26123456 ||
		r.BytesPerOp != 8123456 || r.AllocsPerOp != 91234 {
		t.Fatalf("parsed: %+v", r)
	}
	// Without -benchmem there are only runs and ns/op.
	r, ok = parseBenchLine("BenchmarkX 100 2500 ns/op")
	if !ok || r.Name != "BenchmarkX" || r.Runs != 100 || r.NsPerOp != 2500 || r.BytesPerOp != 0 {
		t.Fatalf("parsed: %+v, ok=%v", r, ok)
	}
	// Other units (SetBytes, b.ReportMetric) land in Metrics.
	r, ok = parseBenchLine("BenchmarkReconfigure-2 1000 40123 ns/op 24923.5 reconfigs/s 512 B/op 7 allocs/op")
	if !ok || r.NsPerOp != 40123 || r.Metrics["reconfigs/s"] != 24923.5 || r.BytesPerOp != 512 || r.AllocsPerOp != 7 {
		t.Fatalf("parsed: %+v, ok=%v", r, ok)
	}
	for _, line := range []string{
		"ok  \tpresp/internal/flow\t1.234s",
		"goos: linux",
		"PASS",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("non-benchmark line parsed: %q", line)
		}
	}
}

func TestConvert(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkB-4 1 200 ns/op 10 B/op 2 allocs/op",
		"BenchmarkA-4 1 100 ns/op 5 B/op 1 allocs/op",
		"PASS",
	}, "\n")
	var out, rest bytes.Buffer
	if err := convert(strings.NewReader(in), &out, &rest); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []Result `json:"benchmarks"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "BenchmarkA" || doc.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("benchmarks not sorted by name: %+v", doc.Benchmarks)
	}
	if !strings.Contains(rest.String(), "PASS") || !strings.Contains(rest.String(), "goos: linux") {
		t.Fatalf("non-benchmark lines not passed through: %q", rest.String())
	}
}

func TestConvertEmpty(t *testing.T) {
	var out, rest bytes.Buffer
	if err := convert(strings.NewReader("PASS\n"), &out, &rest); err == nil {
		t.Fatal("empty benchmark set accepted")
	}
}
