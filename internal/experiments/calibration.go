package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"presp/internal/core"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// Calibration scores a CAD cost model against the runtimes the paper
// publishes in Tables III, IV and V: squared relative error over every
// published cell plus heavy penalties for violating the orderings that
// carry the paper's claims. It composes the model analytically
// (predict) rather than running the flows, so a fit can afford
// hundreds of thousands of evaluations; TestCalibrationMatchesExperiments
// pins every predicted cell to the minutes Table3/4/5 report.
type Calibration struct {
	cases []*designCase
	index map[string]int // SoC name -> cases index
	cells [][]cell       // per paperCells entry
	sides [][2][]cell    // per paperOrders entry: lhs, rhs
}

// designCase carries everything the model needs about one SoC,
// precomputed so an evaluation is pure arithmetic.
type designCase struct {
	staticK, totalK, reconfK float64 // kLUTs: static, whole design, reconfigurable
	n                        int
	rpFrac                   float64
	rpK                      []float64   // per-partition kLUTs (for synthesis)
	groups                   [][]float64 // τ -> per-group kLUTs (LPT packing), τ = 2..n
}

// NewCalibration elaborates the SoCs of Tables III–V and resolves the
// published cells and orderings against them.
func NewCalibration() (*Calibration, error) {
	wamiSoCs, err := flowSoCs()
	if err != nil {
		return nil, err
	}
	c := &Calibration{index: make(map[string]int)}
	for _, cfg := range append(socgen.CharacterizationSoCs(), wamiSoCs...) {
		dc, err := newDesignCase(cfg)
		if err != nil {
			return nil, err
		}
		c.index[cfg.Name] = len(c.cases)
		c.cases = append(c.cases, dc)
	}
	resolve := func(sum string) []cell {
		cells, rerr := c.resolve(sum)
		err = cmp.Or(err, rerr)
		return cells
	}
	for _, t := range paperCells {
		c.cells = append(c.cells, resolve(t.name))
	}
	for _, o := range paperOrders {
		c.sides = append(c.sides, [2][]cell{resolve(o.lhs), resolve(o.rhs)})
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func newDesignCase(cfg *socgen.Config) (*designCase, error) {
	d, err := elaborate(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := flow.FloorplanDesign(d, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
	}
	dc := &designCase{
		staticK: float64(d.StaticResources[fpga.LUT]) / 1000,
		n:       len(d.RPs),
		rpFrac:  plan.RPFraction,
		groups:  make([][]float64, len(d.RPs)+1),
	}
	dc.totalK = dc.staticK + float64(d.ReconfigurableResources()[fpga.LUT])/1000
	dc.reconfK = dc.totalK - dc.staticK
	rpSize := make(map[string]float64, len(d.RPs))
	for _, rp := range d.RPs {
		k := float64(rp.Resources[fpga.LUT]) / 1000
		dc.rpK = append(dc.rpK, k)
		rpSize[rp.Name] = k
	}
	for tau := 2; tau <= dc.n; tau++ {
		for _, g := range core.GroupRPs(d, tau) {
			sum := 0.0
			for _, name := range g {
				sum += rpSize[name]
			}
			dc.groups[tau] = append(dc.groups[tau], sum)
		}
	}
	return dc, nil
}

// The quantities predict computes for a design, by index; index
// qTotal+τ holds the P&R total t_static + Ω at parallelism τ.
const (
	qSerial  = iota // τ=1 DFX implementation
	qTStatic        // static pre-route
	qSynthPR        // PR-ESP parallel OoC synthesis wall time
	qSynthMo        // monolithic single-instance synthesis
	qMonoPR         // flat (non-DPR) implementation
	qTotal
)

var quantities = map[string]int{"serial": qSerial, "tstatic": qTStatic, "synthPR": qSynthPR, "synthMo": qSynthMo, "monoPR": qMonoPR}

// predict composes the cost model the way the flows book their wall
// times (flow.runPartitioned, flow.RunMonolithic), in minutes.
func predict(m *vivado.CostModel, dc *designCase) []float64 {
	p := make([]float64, qTotal+len(dc.groups))
	p[qSerial] = float64(m.SerialImplTime(dc.totalK, dc.n, dc.rpFrac))
	p[qTStatic] = float64(m.StaticPreRouteTime(dc.staticK, dc.rpFrac, dc.n))
	var buf [32]vivado.Minutes
	for tau := 2; tau < len(dc.groups); tau++ {
		runs := buf[:0]
		for _, g := range dc.groups[tau] {
			runs = append(runs, m.InContextImplTime(g, dc.staticK, dc.reconfK))
		}
		p[qTotal+tau] = p[qTStatic] + float64(m.ConcurrentWall(tau, runs...))
	}
	// PR-ESP: the static part and every partition synthesize at once.
	runs := append(buf[:0], m.SynthTime(dc.staticK, false))
	for _, k := range dc.rpK {
		runs = append(runs, m.SynthTime(k, true))
	}
	p[qSynthPR] = float64(m.ConcurrentWall(dc.n+1, runs...))
	// Monolithic: one synthesis of the whole design, then a flat
	// implementation with no partitions and no pblock congestion.
	p[qSynthMo] = float64(m.SynthTime(dc.totalK, false))
	p[qMonoPR] = float64(m.SerialImplTime(dc.totalK, 0, 0))
	return p
}

// cell is one predicted quantity q of design d.
type cell struct{ d, q int }

// resolve parses a "+"-separated sum of cells named "<SoC>.<key>": key
// is serial, tstatic, synthPR, synthMo, monoPR, T<τ>, full (τ =
// partition count) or semi (τ = core.DefaultSemiTau).
func (c *Calibration) resolve(sum string) ([]cell, error) {
	var cells []cell
	for _, name := range strings.Split(sum, "+") {
		soc, key, _ := strings.Cut(name, ".")
		d, known := c.index[soc]
		q, ok := quantities[key]
		if known && !ok {
			tau := 0
			switch {
			case key == "full":
				tau = c.cases[d].n
			case key == "semi":
				tau = core.DefaultSemiTau
			case strings.HasPrefix(key, "T"):
				tau, _ = strconv.Atoi(key[1:])
			}
			q, ok = qTotal+tau, tau >= 2 && tau <= c.cases[d].n
		}
		if !known || !ok {
			return nil, fmt.Errorf("experiments: unknown calibration cell %q", name)
		}
		cells = append(cells, cell{d, q})
	}
	return cells, nil
}

// target is one published runtime in minutes, with its weight in the
// score.
type target struct {
	name          string
	value, weight float64
}

// order is one ordering the paper's claims rest on: the lhs sum of
// cells must be less than the rhs sum by at least margin of the latter.
type order struct {
	name     string
	margin   float64
	lhs, rhs string // "+"-separated cell names
}

var paperCells = []target{
	// Table III: characterization.
	{"SOC_1.serial", 89, 1}, {"SOC_1.tstatic", 75, 1}, {"SOC_1.T2", 110, 1}, {"SOC_1.T3", 105, 1},
	{"SOC_1.T4", 97, 1}, {"SOC_1.T5", 94, 1}, {"SOC_1.T16", 93, 1},
	{"SOC_2.serial", 181, 1}, {"SOC_2.tstatic", 94, 1}, {"SOC_2.T2", 173, 1}, {"SOC_2.T3", 166, 1}, {"SOC_2.T4", 152, 1},
	{"SOC_3.serial", 158, 1}, {"SOC_3.tstatic", 86, 1}, {"SOC_3.T2", 134, 1}, {"SOC_3.T3", 137, 1},
	{"SOC_4.serial", 163, 0.4}, {"SOC_4.tstatic", 42, 1}, {"SOC_4.T2", 130, 1}, {"SOC_4.T3", 105, 1},
	{"SOC_4.T4", 100, 1}, {"SOC_4.T5", 94, 1},
	// Table IV: WAMI flow SoCs (P&R only).
	{"SoC_A.tstatic", 98, 1}, {"SoC_A.full", 150, 1.5}, {"SoC_A.semi", 186, 1}, {"SoC_A.serial", 192, 1},
	{"SoC_B.tstatic", 95, 1}, {"SoC_B.full", 143, 1}, {"SoC_B.semi", 156, 1}, {"SoC_B.serial", 135, 1.5},
	{"SoC_C.tstatic", 88, 1}, {"SoC_C.full", 159, 1}, {"SoC_C.semi", 152, 1.5}, {"SoC_C.serial", 167, 1},
	{"SoC_D.tstatic", 48, 1}, {"SoC_D.full", 119, 1.5}, {"SoC_D.semi", 131, 1}, {"SoC_D.serial", 142, 1},
	// Table V: synthesis and the monolithic baseline.
	{"SoC_A.synthPR", 47, 0.6}, {"SoC_B.synthPR", 54, 0.6}, {"SoC_C.synthPR", 42, 0.6}, {"SoC_D.synthPR", 49, 0.3},
	{"SoC_A.synthMo", 91, 0.6}, {"SoC_B.synthMo", 60, 0.6}, {"SoC_C.synthMo", 74, 0.6}, {"SoC_D.synthMo", 81, 0.3},
	{"SoC_A.monoPR", 152, 0.6}, {"SoC_B.monoPR", 124, 0.4}, {"SoC_C.monoPR", 129, 0.6}, {"SoC_D.monoPR", 141, 0.25},
}

var paperOrders = []order{
	// SOC_1 / class 1.1: serial beats every parallel degree.
	{"SOC_1 serial < T2", 0.01, "SOC_1.serial", "SOC_1.T2"},
	{"SOC_1 serial < T3", 0.01, "SOC_1.serial", "SOC_1.T3"},
	{"SOC_1 serial < T4", 0.01, "SOC_1.serial", "SOC_1.T4"},
	{"SOC_1 serial < T5", 0.01, "SOC_1.serial", "SOC_1.T5"},
	{"SOC_1 serial < T16", 0.01, "SOC_1.serial", "SOC_1.T16"},
	// SOC_2 / class 1.2: more parallelism keeps helping.
	{"SOC_2 T4 < T3", 0, "SOC_2.T4", "SOC_2.T3"},
	{"SOC_2 T3 < T2", 0, "SOC_2.T3", "SOC_2.T2"},
	{"SOC_2 T2 < serial", 0, "SOC_2.T2", "SOC_2.serial"},
	// SOC_3 / class 1.3: τ=2 wins.
	{"SOC_3 T2 < T3", -0.03, "SOC_3.T2", "SOC_3.T3"},
	{"SOC_3 T2 < serial", 0.01, "SOC_3.T2", "SOC_3.serial"},
	// SOC_4 / class 2.1: fully parallel wins.
	{"SOC_4 T5 < T4", 0, "SOC_4.T5", "SOC_4.T4"},
	{"SOC_4 T4 < T3", 0, "SOC_4.T4", "SOC_4.T3"},
	{"SOC_4 T3 < T2", 0, "SOC_4.T3", "SOC_4.T2"},
	{"SOC_4 T2 < serial", 0, "SOC_4.T2", "SOC_4.serial"},
	// Table IV per-class winners.
	{"SoC_A full < semi", 0.01, "SoC_A.full", "SoC_A.semi"},
	{"SoC_A full < serial", 0.01, "SoC_A.full", "SoC_A.serial"},
	{"SoC_B serial < full", 0.01, "SoC_B.serial", "SoC_B.full"},
	{"SoC_B serial < semi", 0.01, "SoC_B.serial", "SoC_B.semi"},
	{"SoC_C semi < full", -0.03, "SoC_C.semi", "SoC_C.full"},
	{"SoC_C semi < serial", 0.01, "SoC_C.semi", "SoC_C.serial"},
	{"SoC_D full < semi", 0.01, "SoC_D.full", "SoC_D.semi"},
	{"SoC_D full < serial", 0.01, "SoC_D.full", "SoC_D.serial"},
	// Table V totals: PR-ESP vs monolithic; for SoC_B the paper has the
	// monolithic flow slightly faster than PR-ESP in serial mode.
	{"TableV A presp < mono", 0.10, "SoC_A.synthPR+SoC_A.full", "SoC_A.synthMo+SoC_A.monoPR"},
	{"TableV C presp < mono", 0.01, "SoC_C.synthPR+SoC_C.semi", "SoC_C.synthMo+SoC_C.monoPR"},
	{"TableV D presp < mono", 0.15, "SoC_D.synthPR+SoC_D.full", "SoC_D.synthMo+SoC_D.monoPR"},
	{"TableV B mono < presp", 0.0, "SoC_B.synthMo+SoC_B.monoPR", "SoC_B.synthPR+SoC_B.serial"},
}

// Fit is how well a cost model reproduces the paper: the score a fit
// minimises, the mean absolute relative error over the published
// cells, and the names of the orderings the model violates.
type Fit struct {
	Score    float64
	MAE      float64
	Cells    int
	Violated []string
}

// Summary is the one-line account of f.
func (f Fit) Summary() string {
	return fmt.Sprintf("MAE %.2f%% over %d cells; violated orderings: %d", f.MAE*100, f.Cells, len(f.Violated))
}

// Evaluate scores m. A non-nil w receives one line per published cell
// and one per violated ordering.
func (c *Calibration) Evaluate(m *vivado.CostModel, w io.Writer) Fit {
	preds := make([][]float64, len(c.cases))
	for i, dc := range c.cases {
		preds[i] = predict(m, dc)
	}
	f := Fit{Cells: len(paperCells)}
	for i, t := range paperCells {
		got := sumCells(c.cells[i], preds)
		rel := (got - t.value) / t.value
		f.Score += t.weight * rel * rel
		f.MAE += math.Abs(rel)
		if w != nil {
			fmt.Fprintf(w, "  %-18s paper=%6.0f model=%6.1f err=%+6.1f%%\n", t.name, t.value, got, rel*100)
		}
	}
	f.MAE /= float64(f.Cells)
	for i, o := range paperOrders {
		l, r := sumCells(c.sides[i][0], preds), sumCells(c.sides[i][1], preds)
		if l >= r*(1-o.margin) {
			v := (l - r*(1-o.margin)) / math.Max(r, 1)
			f.Score += 25 * (1 + v)
			f.Violated = append(f.Violated, o.name)
			if w != nil {
				fmt.Fprintf(w, "  VIOLATED %-28s lhs=%.1f rhs=%.1f\n", o.name, l, r)
			}
		}
	}
	return f
}

func sumCells(cells []cell, preds [][]float64) float64 {
	var s float64
	for _, ce := range cells {
		s += preds[ce.d][ce.q]
	}
	return s
}
