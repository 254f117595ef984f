// Command presp-calibrate fits the constants of the simulated CAD
// runtime model (internal/vivado.CostModel) against the measurements the
// paper publishes in Tables III, IV and V: serial implementation times,
// static pre-route times (t_static), in-context run times (Ω) under
// every parallelism degree, and synthesis times for both flows.
//
// The optimizer is a random-restart hill climber over the model
// parameters in log space. The objective mixes squared relative error
// over every published cell with heavy penalties for violating the
// orderings that carry the paper's claims (which strategy wins for each
// design class). The fitted constants are what DefaultCostModel ships;
// re-run this tool after changing the model's functional form.
//
// Usage: presp-calibrate [-iters N] [-seed S] [-v]
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"presp/internal/accel"
	"presp/internal/core"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/socgen"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// designCase carries everything the model needs about one SoC,
// precomputed so an objective evaluation is pure arithmetic.
type designCase struct {
	name    string
	staticK float64
	totalK  float64
	n       int
	rpFrac  float64
	reconfK float64           // total reconfigurable content kLUTs
	rpK     []float64         // per-partition kLUTs (for synthesis)
	groups  map[int][]float64 // τ -> per-group kLUTs (LPT packing)
}

func buildCases() ([]*designCase, error) {
	reg := accel.Default()
	if err := wami.AddTo(reg); err != nil {
		return nil, err
	}
	var configs []*socgen.Config
	configs = append(configs, socgen.CharacterizationSoCs()...)
	for _, n := range wami.FlowSoCNames() {
		c, err := wami.FlowSoC(n)
		if err != nil {
			return nil, err
		}
		configs = append(configs, c)
	}
	var out []*designCase
	for _, cfg := range configs {
		d, err := socgen.Elaborate(cfg, reg)
		if err != nil {
			return nil, err
		}
		plan, err := flow.FloorplanDesign(d, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		dc := &designCase{
			name:    cfg.Name,
			staticK: float64(d.StaticResources[fpga.LUT]) / 1000,
			n:       len(d.RPs),
			rpFrac:  plan.RPFraction,
			groups:  make(map[int][]float64),
		}
		dc.totalK = dc.staticK + float64(d.ReconfigurableResources()[fpga.LUT])/1000
		rpSize := make(map[string]float64, len(d.RPs))
		for _, rp := range d.RPs {
			k := float64(rp.Resources[fpga.LUT]) / 1000
			dc.rpK = append(dc.rpK, k)
			rpSize[rp.Name] = k
		}
		dc.reconfK = dc.totalK - dc.staticK
		for tau := 2; tau <= dc.n; tau++ {
			var gk []float64
			for _, g := range core.GroupRPs(d, tau) {
				sum := 0.0
				for _, name := range g {
					sum += rpSize[name]
				}
				gk = append(gk, sum)
			}
			dc.groups[tau] = gk
		}
		out = append(out, dc)
	}
	return out, nil
}

// predictions of the model for one design.
type pred struct {
	serial  float64
	tStatic float64
	omega   map[int]float64 // τ -> max in-context run (with contention)
	synthPR float64         // PR-ESP parallel OoC synthesis wall time
	synthMo float64         // monolithic single-instance synthesis
	monoPR  float64         // flat (non-DPR) implementation
}

func predict(m *vivado.CostModel, dc *designCase) pred {
	p := pred{omega: make(map[int]float64)}
	p.serial = float64(m.SerialImplTime(dc.totalK, dc.n, dc.rpFrac))
	p.tStatic = float64(m.StaticPreRouteTime(dc.staticK, dc.rpFrac, dc.n))
	for tau, gk := range dc.groups {
		cont := m.Contention(tau)
		var mx float64
		for _, g := range gk {
			t := float64(m.InContextImplTime(g, dc.staticK, dc.reconfK)) * cont
			if t > mx {
				mx = t
			}
		}
		p.omega[tau] = mx
	}
	// PR-ESP: all syntheses in parallel.
	sw := float64(m.SynthTime(dc.staticK, false))
	for _, k := range dc.rpK {
		if t := float64(m.SynthTime(k, true)); t > sw {
			sw = t
		}
	}
	p.synthPR = sw * m.Contention(dc.n+1)
	// Monolithic: single-instance synthesis of the whole design.
	p.synthMo = float64(m.SynthTime(dc.totalK, false))
	// Flat implementation: no partitions, no pblock congestion.
	p.monoPR = float64(m.SerialImplTime(dc.totalK, 0, 0))
	return p
}

// target is one published measurement.
type target struct {
	name   string
	value  float64
	weight float64
	get    func(map[string]pred) float64
}

// order is one ordering constraint the paper's conclusions rest on:
// lhs must be less than rhs by at least marginFrac of rhs.
type order struct {
	name       string
	marginFrac float64
	lhs, rhs   func(map[string]pred) float64
}

func tt(p map[string]pred, d string, tau int) float64 { return p[d].tStatic + p[d].omega[tau] }

func buildTargets() ([]target, []order) {
	var ts []target
	add := func(name string, v, w float64, get func(map[string]pred) float64) {
		ts = append(ts, target{name: name, value: v, weight: w, get: get})
	}
	// --- Table III: characterization. ---
	add("SOC_1.serial", 89, 1, func(p map[string]pred) float64 { return p["SOC_1"].serial })
	add("SOC_1.tstatic", 75, 1, func(p map[string]pred) float64 { return p["SOC_1"].tStatic })
	add("SOC_1.T2", 110, 1, func(p map[string]pred) float64 { return tt(p, "SOC_1", 2) })
	add("SOC_1.T3", 105, 1, func(p map[string]pred) float64 { return tt(p, "SOC_1", 3) })
	add("SOC_1.T4", 97, 1, func(p map[string]pred) float64 { return tt(p, "SOC_1", 4) })
	add("SOC_1.T5", 94, 1, func(p map[string]pred) float64 { return tt(p, "SOC_1", 5) })
	add("SOC_1.T16", 93, 1, func(p map[string]pred) float64 { return tt(p, "SOC_1", 16) })
	add("SOC_2.serial", 181, 1, func(p map[string]pred) float64 { return p["SOC_2"].serial })
	add("SOC_2.tstatic", 94, 1, func(p map[string]pred) float64 { return p["SOC_2"].tStatic })
	add("SOC_2.T2", 173, 1, func(p map[string]pred) float64 { return tt(p, "SOC_2", 2) })
	add("SOC_2.T3", 166, 1, func(p map[string]pred) float64 { return tt(p, "SOC_2", 3) })
	add("SOC_2.T4", 152, 1, func(p map[string]pred) float64 { return tt(p, "SOC_2", 4) })
	add("SOC_3.serial", 158, 1, func(p map[string]pred) float64 { return p["SOC_3"].serial })
	add("SOC_3.tstatic", 86, 1, func(p map[string]pred) float64 { return p["SOC_3"].tStatic })
	add("SOC_3.T2", 134, 1, func(p map[string]pred) float64 { return tt(p, "SOC_3", 2) })
	add("SOC_3.T3", 137, 1, func(p map[string]pred) float64 { return tt(p, "SOC_3", 3) })
	add("SOC_4.serial", 163, 0.4, func(p map[string]pred) float64 { return p["SOC_4"].serial })
	add("SOC_4.tstatic", 42, 1, func(p map[string]pred) float64 { return p["SOC_4"].tStatic })
	add("SOC_4.T2", 130, 1, func(p map[string]pred) float64 { return tt(p, "SOC_4", 2) })
	add("SOC_4.T3", 105, 1, func(p map[string]pred) float64 { return tt(p, "SOC_4", 3) })
	add("SOC_4.T4", 100, 1, func(p map[string]pred) float64 { return tt(p, "SOC_4", 4) })
	add("SOC_4.T5", 94, 1, func(p map[string]pred) float64 { return tt(p, "SOC_4", 5) })
	// --- Table IV: WAMI flow SoCs (P&R only). ---
	add("SoC_A.tstatic", 98, 1, func(p map[string]pred) float64 { return p["SoC_A"].tStatic })
	add("SoC_A.full", 150, 1.5, func(p map[string]pred) float64 { return tt(p, "SoC_A", 4) })
	add("SoC_A.semi", 186, 1, func(p map[string]pred) float64 { return tt(p, "SoC_A", 2) })
	add("SoC_A.serial", 192, 1, func(p map[string]pred) float64 { return p["SoC_A"].serial })
	add("SoC_B.tstatic", 95, 1, func(p map[string]pred) float64 { return p["SoC_B"].tStatic })
	add("SoC_B.full", 143, 1, func(p map[string]pred) float64 { return tt(p, "SoC_B", 4) })
	add("SoC_B.semi", 156, 1, func(p map[string]pred) float64 { return tt(p, "SoC_B", 2) })
	add("SoC_B.serial", 135, 1.5, func(p map[string]pred) float64 { return p["SoC_B"].serial })
	add("SoC_C.tstatic", 88, 1, func(p map[string]pred) float64 { return p["SoC_C"].tStatic })
	add("SoC_C.full", 159, 1, func(p map[string]pred) float64 { return tt(p, "SoC_C", 4) })
	add("SoC_C.semi", 152, 1.5, func(p map[string]pred) float64 { return tt(p, "SoC_C", 2) })
	add("SoC_C.serial", 167, 1, func(p map[string]pred) float64 { return p["SoC_C"].serial })
	add("SoC_D.tstatic", 48, 1, func(p map[string]pred) float64 { return p["SoC_D"].tStatic })
	add("SoC_D.full", 119, 1.5, func(p map[string]pred) float64 { return tt(p, "SoC_D", 5) })
	add("SoC_D.semi", 131, 1, func(p map[string]pred) float64 { return tt(p, "SoC_D", 2) })
	add("SoC_D.serial", 142, 1, func(p map[string]pred) float64 { return p["SoC_D"].serial })
	// --- Table V: synthesis and the monolithic baseline. ---
	add("SoC_A.synthPR", 47, 0.6, func(p map[string]pred) float64 { return p["SoC_A"].synthPR })
	add("SoC_B.synthPR", 54, 0.6, func(p map[string]pred) float64 { return p["SoC_B"].synthPR })
	add("SoC_C.synthPR", 42, 0.6, func(p map[string]pred) float64 { return p["SoC_C"].synthPR })
	add("SoC_D.synthPR", 49, 0.3, func(p map[string]pred) float64 { return p["SoC_D"].synthPR })
	add("SoC_A.synthMo", 91, 0.6, func(p map[string]pred) float64 { return p["SoC_A"].synthMo })
	add("SoC_B.synthMo", 60, 0.6, func(p map[string]pred) float64 { return p["SoC_B"].synthMo })
	add("SoC_C.synthMo", 74, 0.6, func(p map[string]pred) float64 { return p["SoC_C"].synthMo })
	add("SoC_D.synthMo", 81, 0.3, func(p map[string]pred) float64 { return p["SoC_D"].synthMo })
	add("SoC_A.monoPR", 152, 0.6, func(p map[string]pred) float64 { return p["SoC_A"].monoPR })
	add("SoC_B.monoPR", 124, 0.4, func(p map[string]pred) float64 { return p["SoC_B"].monoPR })
	add("SoC_C.monoPR", 129, 0.6, func(p map[string]pred) float64 { return p["SoC_C"].monoPR })
	add("SoC_D.monoPR", 141, 0.25, func(p map[string]pred) float64 { return p["SoC_D"].monoPR })

	// Orderings that carry the paper's claims.
	var os []order
	lt := func(name string, margin float64, lhs, rhs func(map[string]pred) float64) {
		os = append(os, order{name: name, marginFrac: margin, lhs: lhs, rhs: rhs})
	}
	// SOC_1 / class 1.1: serial beats every parallel degree.
	for _, tau := range []int{2, 3, 4, 5, 16} {
		tau := tau
		lt(fmt.Sprintf("SOC_1 serial < T%d", tau), 0.01,
			func(p map[string]pred) float64 { return p["SOC_1"].serial },
			func(p map[string]pred) float64 { return tt(p, "SOC_1", tau) })
	}
	// SOC_2 / class 1.2: more parallelism keeps helping.
	lt("SOC_2 T4 < T3", 0, func(p map[string]pred) float64 { return tt(p, "SOC_2", 4) }, func(p map[string]pred) float64 { return tt(p, "SOC_2", 3) })
	lt("SOC_2 T3 < T2", 0, func(p map[string]pred) float64 { return tt(p, "SOC_2", 3) }, func(p map[string]pred) float64 { return tt(p, "SOC_2", 2) })
	lt("SOC_2 T2 < serial", 0, func(p map[string]pred) float64 { return tt(p, "SOC_2", 2) }, func(p map[string]pred) float64 { return p["SOC_2"].serial })
	// SOC_3 / class 1.3: τ=2 wins.
	lt("SOC_3 T2 < T3", -0.03, func(p map[string]pred) float64 { return tt(p, "SOC_3", 2) }, func(p map[string]pred) float64 { return tt(p, "SOC_3", 3) })
	lt("SOC_3 T2 < serial", 0.01, func(p map[string]pred) float64 { return tt(p, "SOC_3", 2) }, func(p map[string]pred) float64 { return p["SOC_3"].serial })
	// SOC_4 / class 2.1: fully parallel wins.
	lt("SOC_4 T5 < T4", 0, func(p map[string]pred) float64 { return tt(p, "SOC_4", 5) }, func(p map[string]pred) float64 { return tt(p, "SOC_4", 4) })
	lt("SOC_4 T4 < T3", 0, func(p map[string]pred) float64 { return tt(p, "SOC_4", 4) }, func(p map[string]pred) float64 { return tt(p, "SOC_4", 3) })
	lt("SOC_4 T3 < T2", 0, func(p map[string]pred) float64 { return tt(p, "SOC_4", 3) }, func(p map[string]pred) float64 { return tt(p, "SOC_4", 2) })
	lt("SOC_4 T2 < serial", 0, func(p map[string]pred) float64 { return tt(p, "SOC_4", 2) }, func(p map[string]pred) float64 { return p["SOC_4"].serial })
	// Table IV per-class winners.
	lt("SoC_A full < semi", 0.01, func(p map[string]pred) float64 { return tt(p, "SoC_A", 4) }, func(p map[string]pred) float64 { return tt(p, "SoC_A", 2) })
	lt("SoC_A full < serial", 0.01, func(p map[string]pred) float64 { return tt(p, "SoC_A", 4) }, func(p map[string]pred) float64 { return p["SoC_A"].serial })
	lt("SoC_B serial < full", 0.01, func(p map[string]pred) float64 { return p["SoC_B"].serial }, func(p map[string]pred) float64 { return tt(p, "SoC_B", 4) })
	lt("SoC_B serial < semi", 0.01, func(p map[string]pred) float64 { return p["SoC_B"].serial }, func(p map[string]pred) float64 { return tt(p, "SoC_B", 2) })
	lt("SoC_C semi < full", -0.03, func(p map[string]pred) float64 { return tt(p, "SoC_C", 2) }, func(p map[string]pred) float64 { return tt(p, "SoC_C", 4) })
	lt("SoC_C semi < serial", 0.01, func(p map[string]pred) float64 { return tt(p, "SoC_C", 2) }, func(p map[string]pred) float64 { return p["SoC_C"].serial })
	lt("SoC_D full < semi", 0.01, func(p map[string]pred) float64 { return tt(p, "SoC_D", 5) }, func(p map[string]pred) float64 { return tt(p, "SoC_D", 2) })
	lt("SoC_D full < serial", 0.01, func(p map[string]pred) float64 { return tt(p, "SoC_D", 5) }, func(p map[string]pred) float64 { return p["SoC_D"].serial })
	// Table V totals: PR-ESP vs monolithic.
	tot := func(d string, tau int) func(map[string]pred) float64 {
		return func(p map[string]pred) float64 {
			if tau == 1 {
				return p[d].synthPR + p[d].serial
			}
			return p[d].synthPR + tt(p, d, tau)
		}
	}
	mono := func(d string) func(map[string]pred) float64 {
		return func(p map[string]pred) float64 { return p[d].synthMo + p[d].monoPR }
	}
	lt("TableV A presp < mono", 0.10, tot("SoC_A", 4), mono("SoC_A"))
	lt("TableV C presp < mono", 0.01, tot("SoC_C", 2), mono("SoC_C"))
	lt("TableV D presp < mono", 0.15, tot("SoC_D", 5), mono("SoC_D"))
	// B: monolithic slightly faster than PR-ESP (serial mode).
	lt("TableV B mono < presp", 0.0, mono("SoC_B"), tot("SoC_B", 1))
	return ts, os
}

// params exposes the fitted subset of the cost model as a vector.
type paramSpec struct {
	name     string
	min, max float64
	get      func(*vivado.CostModel) float64
	set      func(*vivado.CostModel, float64)
}

func specs() []paramSpec {
	return []paramSpec{
		{"SynthBase", 0.5, 25, func(m *vivado.CostModel) float64 { return m.SynthBase }, func(m *vivado.CostModel, v float64) { m.SynthBase = v }},
		{"SynthPerK", 0.01, 2, func(m *vivado.CostModel) float64 { return m.SynthPerK }, func(m *vivado.CostModel, v float64) { m.SynthPerK = v }},
		{"SynthExp", 0.9, 1.6, func(m *vivado.CostModel) float64 { return m.SynthExp }, func(m *vivado.CostModel, v float64) { m.SynthExp = v }},
		{"SynthOoCFactor", 0.5, 1.3, func(m *vivado.CostModel) float64 { return m.SynthOoCFactor }, func(m *vivado.CostModel, v float64) { m.SynthOoCFactor = v }},
		{"ImplBase", 1, 20, func(m *vivado.CostModel) float64 { return m.ImplBase }, func(m *vivado.CostModel, v float64) { m.ImplBase = v }},
		{"PRPerK", 0.005, 2, func(m *vivado.CostModel) float64 { return m.PRPerK }, func(m *vivado.CostModel, v float64) { m.PRPerK = v }},
		{"PRExp", 1.0, 1.8, func(m *vivado.CostModel) float64 { return m.PRExp }, func(m *vivado.CostModel, v float64) { m.PRExp = v }},
		{"StaticCongestion", 0, 3, func(m *vivado.CostModel) float64 { return m.StaticCongestion }, func(m *vivado.CostModel, v float64) { m.StaticCongestion = v }},
		{"StitchPerRP", 0, 3, func(m *vivado.CostModel) float64 { return m.StitchPerRP }, func(m *vivado.CostModel, v float64) { m.StitchPerRP = v }},
		{"SerialPerRP", 0, 6, func(m *vivado.CostModel) float64 { return m.SerialPerRP }, func(m *vivado.CostModel, v float64) { m.SerialPerRP = v }},
		{"SerialCongestion", 0, 0.35, func(m *vivado.CostModel) float64 { return m.SerialCongestion }, func(m *vivado.CostModel, v float64) { m.SerialCongestion = v }},
		{"CtxBase", 0.5, 16, func(m *vivado.CostModel) float64 { return m.CtxBase }, func(m *vivado.CostModel, v float64) { m.CtxBase = v }},
		{"LoadStaticPerK", 0, 0.4, func(m *vivado.CostModel) float64 { return m.LoadStaticPerK }, func(m *vivado.CostModel, v float64) { m.LoadStaticPerK = v }},
		{"LoadReconfPerK", 0, 0.4, func(m *vivado.CostModel) float64 { return m.LoadReconfPerK }, func(m *vivado.CostModel, v float64) { m.LoadReconfPerK = v }},
		{"CtxPerK", 0.05, 3, func(m *vivado.CostModel) float64 { return m.CtxPerK }, func(m *vivado.CostModel, v float64) { m.CtxPerK = v }},
		{"CtxExp", 0.6, 1.4, func(m *vivado.CostModel) float64 { return m.CtxExp }, func(m *vivado.CostModel, v float64) { m.CtxExp = v }},
		{"ContentionPerInstance", 0, 0.08, func(m *vivado.CostModel) float64 { return m.ContentionPerInstance }, func(m *vivado.CostModel, v float64) { m.ContentionPerInstance = v }},
	}
}

// fit is how well a cost model reproduces the paper: the score the hill
// climber minimises, the mean absolute relative error over the
// published cells, and the names of the orderings the model violates.
type fit struct {
	score    float64
	mae      float64
	cells    int
	violated []string
}

// summary is the one-line account of f that every run prints last.
func (f fit) summary() string {
	return fmt.Sprintf("MAE %.2f%% over %d cells; violated orderings: %d", f.mae*100, f.cells, len(f.violated))
}

func objective(m *vivado.CostModel, cases []*designCase, ts []target, os []order, verbose bool) fit {
	preds := make(map[string]pred, len(cases))
	for _, dc := range cases {
		preds[dc.name] = predict(m, dc)
	}
	f := fit{cells: len(ts)}
	for _, t := range ts {
		got := t.get(preds)
		rel := (got - t.value) / t.value
		f.score += t.weight * rel * rel
		f.mae += math.Abs(rel)
		if verbose {
			fmt.Printf("  %-18s paper=%6.0f model=%6.1f err=%+6.1f%%\n", t.name, t.value, got, rel*100)
		}
	}
	f.mae /= float64(f.cells)
	for _, o := range os {
		l, r := o.lhs(preds), o.rhs(preds)
		if l >= r*(1-o.marginFrac) {
			v := (l - r*(1-o.marginFrac)) / math.Max(r, 1)
			f.score += 25 * (1 + v)
			f.violated = append(f.violated, o.name)
			if verbose {
				fmt.Printf("  VIOLATED %-28s lhs=%.1f rhs=%.1f\n", o.name, l, r)
			}
		}
	}
	return f
}

func main() {
	iters := flag.Int("iters", 200000, "hill-climb iterations")
	seed := flag.Int64("seed", 42, "random seed")
	verbose := flag.Bool("v", false, "print per-cell errors of the final model")
	flag.Parse()

	cases, err := buildCases()
	if err != nil {
		fmt.Fprintln(os.Stderr, "presp-calibrate:", err)
		os.Exit(1)
	}
	ts, ords := buildTargets()
	sp := specs()
	rng := rand.New(rand.NewSource(*seed))

	best := vivado.DefaultCostModel()
	bestScore := objective(best, cases, ts, ords, false).score
	fmt.Printf("start: score %.4f\n", bestScore)

	cur := *best
	curScore := bestScore
	for i := 0; i < *iters; i++ {
		cand := cur
		// Perturb 1-3 random parameters multiplicatively.
		np := 1 + rng.Intn(3)
		for j := 0; j < np; j++ {
			s := sp[rng.Intn(len(sp))]
			v := s.get(&cand)
			scale := math.Exp(rng.NormFloat64() * 0.15)
			v = v*scale + rng.NormFloat64()*0.01*(s.max-s.min)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			s.set(&cand, v)
		}
		score := objective(&cand, cases, ts, ords, false).score
		// Accept improvements; occasionally accept sideways moves.
		if score < curScore || (score < curScore*1.002 && rng.Float64() < 0.1) {
			cur, curScore = cand, score
			if score < bestScore {
				b := cand
				best, bestScore = &b, score
			}
		}
		// Random restart from the best when stuck.
		if i%20000 == 19999 {
			cur, curScore = *best, bestScore
		}
	}
	fmt.Printf("final: score %.4f\n\n", bestScore)
	names := make([]string, 0, len(sp))
	bySpec := make(map[string]float64)
	for _, s := range sp {
		names = append(names, s.name)
		bySpec[s.name] = s.get(best)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %.5g\n", n, bySpec[n])
	}
	fmt.Println()
	fmt.Println(objective(best, cases, ts, ords, true).summary())
	if *verbose {
		fmt.Println("\n(the block above already includes per-cell errors)")
	}
}
