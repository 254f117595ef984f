package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"presp/internal/obs"
)

// span is one complete trace event, in trace microseconds.
type span struct {
	name, stage string
	ts, dur     int64
}

func (s span) end() int64 { return s.ts + s.dur }

// spansNamed returns the complete spans of category cat whose name has
// the given prefix ("" matches any) and that start at or after since.
func spansNamed(ev []obs.Event, since int64, cat, prefix string) []span {
	var out []span
	for _, e := range ev {
		if e.Phase != "X" || e.Cat != cat || e.TS < since || !strings.HasPrefix(e.Name, prefix) {
			continue
		}
		stage, _ := e.Args["stage"].(string)
		out = append(out, span{name: e.Name, stage: stage, ts: e.TS, dur: e.Dur})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ts < out[j].ts })
	return out
}

func total(ss []span) int64 {
	var t int64
	for _, s := range ss {
		t += s.dur
	}
	return t
}

// selfTime is the parents' time not covered by their children: each
// parent's duration minus the union of the child intervals inside it.
// When parents overlap each other (concurrent server flights), a child
// cannot be attributed to one parent — its spans carry no flight id —
// so the children are subtracted in aggregate instead. That is exact
// when one parent's children never overlap each other, as with one
// scheduler worker per flight.
func selfTime(parents, children []span) int64 {
	for i := 1; i < len(parents); i++ {
		if parents[i].ts < parents[i-1].end() {
			return total(parents) - total(children)
		}
	}
	var self int64
	for _, p := range parents {
		self += p.dur - coverage(p, children)
	}
	return self
}

// coverage is the length of the union of the child intervals clipped to
// p. children must be sorted by start.
func coverage(p span, children []span) int64 {
	var covered, curStart, curEnd int64
	open := false
	for _, c := range children {
		if c.end() <= p.ts || c.ts >= p.end() {
			continue
		}
		s, e := max(c.ts, p.ts), min(c.end(), p.end())
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		covered += curEnd - curStart
	}
	return covered
}

// flowCounters are the flow scheduler's registry counters.
type flowCounters struct{ jobs, stageHits, stageMisses int64 }

func readFlowCounters(reg *obs.Registry) flowCounters {
	return flowCounters{
		jobs:        reg.Counter("flow_jobs_total").Value(),
		stageHits:   reg.Counter("flow_stage_cache_hits").Value(),
		stageMisses: reg.Counter("flow_stage_cache_misses").Value(),
	}
}

func (a flowCounters) minus(b flowCounters) flowCounters {
	return flowCounters{a.jobs - b.jobs, a.stageHits - b.stageHits, a.stageMisses - b.stageMisses}
}

// flowLayers reports the flow, vivado, bitstream and floorplan times of
// the flow runs (runs) and their scheduler job spans (jobs), per run.
// The job spans are aggregated by stage only.
func flowLayers(set func(string, float64), runs, jobs []span, workers int, c flowCounters) {
	if len(runs) == 0 {
		return
	}
	n := float64(len(runs))
	perRun := func(us int64) float64 { return float64(us) / 1e3 / n }
	runUS, jobUS := total(runs), total(jobs)
	set("flow.run_ms", perRun(runUS))
	set("flow.self_ms", perRun(selfTime(runs, jobs)))
	if runUS > 0 {
		set("flow.busy_frac", float64(jobUS)/float64(runUS*int64(workers)))
	}
	set("flow.jobs_executed", float64(c.jobs))
	set("flow.jobs_skipped", float64(c.stageHits))
	set("flow.skip_ratio", ratio(c.stageHits, c.stageHits+c.stageMisses))
	byStage := map[string]int64{}
	var floorplanUS int64
	for _, j := range jobs {
		byStage[j.stage] += j.dur
		if j.name == "floorplan" {
			floorplanUS += j.dur
		}
	}
	set("vivado.synth_ms", perRun(byStage["synth"]))
	set("vivado.impl_ms", perRun(byStage["impl"]))
	set("bitstream.bitgen_ms", perRun(byStage["bitgen"]))
	set("floorplan.ms", perRun(floorplanUS))
}

// layerRow is one line of the span table.
type layerRow struct {
	group         string
	count         int
	totalMS, self float64
}

// perLayerRows groups one workload's traced spans — benchmark spans by
// name, scheduler job spans by stage, server flights together — and
// computes each parent group's self time against its children.
func perLayerRows(ev []obs.Event) []layerRow {
	groups := map[string][]span{}
	for _, cat := range []string{"bench", "job", "server"} {
		for _, s := range spansNamed(ev, 0, cat, "") {
			g := s.name
			switch cat {
			case "job":
				g = "job." + s.stage
			case "server":
				g = "server.flight"
			}
			groups[g] = append(groups[g], s)
		}
	}
	var jobs []span
	for g, ss := range groups {
		if strings.HasPrefix(g, "job.") {
			jobs = append(jobs, ss...)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ts < jobs[j].ts })
	children := map[string][]span{
		"flow.run":       jobs,
		"server.flight":  jobs,
		"reconfig.batch": groups["accel.kernel"],
	}
	var rows []layerRow
	for g, ss := range groups {
		r := layerRow{group: g, count: len(ss), totalMS: float64(total(ss)) / 1e3}
		r.self = r.totalMS
		if ch, ok := children[g]; ok {
			r.self = float64(selfTime(ss, ch)) / 1e3
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].group < rows[j].group })
	return rows
}

// eventsBetween keeps the events stamped in [from, to].
func eventsBetween(ev []obs.Event, from, to int64) []obs.Event {
	var out []obs.Event
	for _, e := range ev {
		if e.TS >= from && e.TS <= to {
			out = append(out, e)
		}
	}
	return out
}

// printSpanTable writes one workload's span table.
func printSpanTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "perfbench: %s traced spans (set-up included; self = span minus child coverage)\n", workload)
	fmt.Fprintf(w, "  %-22s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %7d %12.2f %12.2f\n", r.group, r.count, r.totalMS, r.self)
	}
}

// printLayerMetrics writes the per-layer metrics with their home workloads.
func printLayerMetrics(w io.Writer, m map[string]metric) {
	fmt.Fprintf(w, "perfbench: per-layer metrics\n")
	for _, def := range perLayer {
		home := def.home
		if home == "" {
			home = "(requested workload)"
		}
		fmt.Fprintf(w, "  %-28s %16.4f %-6s %s\n", def.name, m[def.name].Value, def.unit, home)
	}
}
