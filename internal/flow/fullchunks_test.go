package flow

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"presp/internal/obs"
	"presp/internal/socgen"
)

// simMinutesClose compares a run's SimMinutes with a pinned value. The
// scheduler sums job minutes in completion order, which varies with the
// interleaving, so the last bits of the float sum may differ.
func simMinutesClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*want
}

// chunkSpans returns the "job" spans of the full image's chunk jobs.
func chunkSpans(events []obs.Event) []obs.Event {
	var spans []obs.Event
	for _, ev := range events {
		if ev.Phase == "X" && ev.Cat == "job" && strings.HasPrefix(ev.Name, "bitgen/full/") {
			spans = append(spans, ev)
		}
	}
	return spans
}

// TestFullImageChunkJobs pins every flow's results on SOC_2 against the
// graph in which the full-device image was one bitgen/full job: the
// modelled times and the image bytes are unchanged at every worker
// count, the split adds exactly fullChunks executed bitgen jobs, and
// the chunk jobs carry no modelled minutes.
func TestFullImageChunkJobs(t *testing.T) {
	want := map[string]struct {
		sim, total, bitgen   float64
		crc                  uint32
		bitgenJobs, executed int
	}{
		"presp":        {524.3657552183463, 200.76454847781923, 11.047780000000001, 0x0eb26da6, 5, 17},
		"standard-dfx": {420.4205300913351, 401.09593009133505, 11.047780000000001, 0x0eb26da6, 5, 12},
		"monolithic":   {257.8259148938289, 249.7539148938289, 8.072000000000001, 0xf6035dd1, 1, 3},
	}
	for _, flowName := range FlowNames() {
		w := want[flowName]
		for _, workers := range []int{1, 2, 4, 8} {
			observer := obs.New()
			res, err := RunFlow(context.Background(), flowName, elaborate(t, socgen.SOC2()), Options{
				Compress: true, Workers: workers, Observer: observer,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", flowName, workers, err)
			}
			if res.Jobs.BitgenJobs != w.bitgenJobs+fullChunks || res.Jobs.Executed() != w.executed+fullChunks {
				t.Fatalf("%s workers=%d: %d bitgen of %d executed jobs, want %d of %d",
					flowName, workers, res.Jobs.BitgenJobs, res.Jobs.Executed(), w.bitgenJobs+fullChunks, w.executed+fullChunks)
			}
			if !simMinutesClose(float64(res.Jobs.SimMinutes), w.sim) || float64(res.Total) != w.total ||
				float64(res.BitgenWall) != w.bitgen || res.FullBitstream.CRC() != w.crc {
				t.Fatalf("%s workers=%d: sim %v total %v bitgen %v crc %08x, want %v %v %v %08x", flowName, workers,
					float64(res.Jobs.SimMinutes), float64(res.Total), float64(res.BitgenWall), res.FullBitstream.CRC(),
					w.sim, w.total, w.bitgen, w.crc)
			}
			events := observer.Tracer().Events()
			if got, want := obs.CountSpans(events, "job"), res.Jobs.Executed(); got != want {
				t.Fatalf("%s workers=%d: %d job spans, want %d", flowName, workers, got, want)
			}
			chunks := chunkSpans(events)
			if len(chunks) != fullChunks {
				t.Fatalf("%s workers=%d: %d chunk job spans, want %d", flowName, workers, len(chunks), fullChunks)
			}
			for _, ev := range chunks {
				if ev.Args["sim_minutes"] != float64(0) {
					t.Fatalf("%s workers=%d: chunk %s carries %v modelled minutes, want 0", flowName, workers, ev.Name, ev.Args["sim_minutes"])
				}
			}
		}
	}
}

// TestFullImageFaultSemantics: a CAD bitgen fault aimed at the full
// image fails job bitgen/full with the error, JobErrors, outcome and
// modelled times the one-job graph produced, at any worker count. The
// chunks never see the fault, and a retried assembly reuses them: each
// chunk runs once, whatever the assembly's attempts.
func TestFullImageFaultSemantics(t *testing.T) {
	const fault = "faultinject: injected bitgen fault at full"
	cases := []struct {
		plan     string
		policy   ErrorPolicy
		retries  int
		runErr   string // fail-fast: the run's error
		jobErrs  string // collect: fmt of JobErrors
		sim      float64
		bitgen   float64
		attempts int // of bitgen/full
	}{
		{plan: "bitgen@full:count=-1", policy: FailFast, retries: 0,
			runErr: "bitgen/full: " + fault + " (fault #1, rule 0)", attempts: 1},
		{plan: "bitgen@full:count=-1", policy: FailFast, retries: 2,
			runErr: "bitgen/full (after 3 attempts): " + fault + " (fault #3, rule 0)", attempts: 3},
		{plan: "bitgen@full:count=-1", policy: Collect, retries: 0,
			jobErrs: "[bitgen/full: " + fault + " (fault #1, rule 0)]", sim: 516.2937552183463, bitgen: 2.9757800000000003, attempts: 1},
		{plan: "bitgen@full:count=-1", policy: Collect, retries: 2,
			jobErrs: "[bitgen/full (after 3 attempts): " + fault + " (fault #3, rule 0)]", sim: 561.2937552183463, bitgen: 2.9757800000000003, attempts: 3},
		{plan: "bitgen@full:count=1", policy: Collect, retries: 2,
			jobErrs: "[]", sim: 539.3657552183463, bitgen: 11.047780000000001, attempts: 2},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s %v retries=%d workers=%d", tc.plan, tc.policy, tc.retries, workers)
			observer := obs.New()
			res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
				Compress: true, Workers: workers, FaultPlan: parsePlan(t, tc.plan),
				ErrorPolicy: tc.policy, MaxJobRetries: tc.retries, Observer: observer,
			})
			if tc.runErr != "" {
				if err == nil || err.Error() != tc.runErr {
					t.Fatalf("%s: run error %v, want %q", name, err, tc.runErr)
				}
			} else {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := fmt.Sprint(res.JobErrors); got != tc.jobErrs || res.Partial != (tc.jobErrs != "[]") ||
					(res.FullBitstream == nil) != res.Partial {
					t.Fatalf("%s: partial=%v full image %v, JobErrors %s; want %s", name, res.Partial, res.FullBitstream != nil, got, tc.jobErrs)
				}
				if !simMinutesClose(float64(res.Jobs.SimMinutes), tc.sim) || float64(res.BitgenWall) != tc.bitgen ||
					float64(res.Total) != 200.76454847781923 {
					t.Fatalf("%s: sim %v bitgen %v total %v, want %v %v 200.76454847781923", name,
						float64(res.Jobs.SimMinutes), float64(res.BitgenWall), float64(res.Total), tc.sim, tc.bitgen)
				}
				if res.Jobs.Retries != tc.attempts-1 {
					t.Fatalf("%s: %d retries, want %d (the assembly's alone)", name, res.Jobs.Retries, tc.attempts-1)
				}
			}
			events := observer.Tracer().Events()
			chunks := chunkSpans(events)
			if len(chunks) != fullChunks {
				t.Fatalf("%s: %d chunk job spans, want %d: every chunk runs once", name, len(chunks), fullChunks)
			}
			for _, ev := range chunks {
				if ev.Args["attempts"] != 1 || ev.Args["error"] != nil {
					t.Fatalf("%s: chunk %s ran %v attempts (error %v), want 1 clean attempt", name, ev.Name, ev.Args["attempts"], ev.Args["error"])
				}
			}
			assembled := 0
			for _, ev := range events {
				if ev.Phase == "X" && ev.Cat == "job" && ev.Name == "bitgen/full" {
					assembled++
					if ev.Args["attempts"] != tc.attempts {
						t.Fatalf("%s: bitgen/full ran %v attempts, want %d", name, ev.Args["attempts"], tc.attempts)
					}
				}
			}
			if assembled != 1 {
				t.Fatalf("%s: %d bitgen/full job spans, want 1", name, assembled)
			}
		}
	}
}
