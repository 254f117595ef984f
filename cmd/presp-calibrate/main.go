// Command presp-calibrate fits the constants of the simulated CAD
// runtime model (internal/vivado.CostModel) against the measurements the
// paper publishes in Tables III, IV and V, as scored by
// experiments.Calibration.
//
// The optimizer is a random-restart hill climber over the model
// parameters. The fitted constants are what DefaultCostModel ships;
// re-run this tool after changing the model's functional form.
//
// Usage: presp-calibrate [-iters N] [-seed S]
//
// The output ends with the final model's per-cell errors, its violated
// orderings and its mean absolute error.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"

	"presp/internal/experiments"
	"presp/internal/vivado"
)

// paramSpec is one fitted vivado.CostModel field and its bounds.
type paramSpec struct {
	name     string
	min, max float64
}

func specs() []paramSpec {
	return []paramSpec{
		{"SynthBase", 0.5, 25}, {"SynthPerK", 0.01, 2}, {"SynthExp", 0.9, 1.6}, {"SynthOoCFactor", 0.5, 1.3},
		{"ImplBase", 1, 20}, {"PRPerK", 0.005, 2}, {"PRExp", 1.0, 1.8},
		{"StaticCongestion", 0, 3}, {"StitchPerRP", 0, 3}, {"SerialPerRP", 0, 6}, {"SerialCongestion", 0, 0.35},
		{"CtxBase", 0.5, 16}, {"LoadStaticPerK", 0, 0.4}, {"LoadReconfPerK", 0, 0.4}, {"CtxPerK", 0.05, 3}, {"CtxExp", 0.6, 1.4},
		{"ContentionPerInstance", 0, 0.08},
	}
}

func main() {
	iters := flag.Int("iters", 200000, "hill-climb iterations")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()

	cal, err := experiments.NewCalibration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "presp-calibrate:", err)
		os.Exit(1)
	}
	sp := specs()
	rng := rand.New(rand.NewSource(*seed))

	best := vivado.DefaultCostModel()
	bestScore := cal.Evaluate(best, nil).Score
	fmt.Printf("start: score %.4f\n", bestScore)

	cur := *best
	curScore := bestScore
	for i := 0; i < *iters; i++ {
		cand := cur
		// Perturb 1-3 random parameters multiplicatively.
		np := 1 + rng.Intn(3)
		for j := 0; j < np; j++ {
			s := sp[rng.Intn(len(sp))]
			f := reflect.ValueOf(&cand).Elem().FieldByName(s.name)
			scale := math.Exp(rng.NormFloat64() * 0.15)
			v := f.Float()*scale + rng.NormFloat64()*0.01*(s.max-s.min)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			f.SetFloat(v)
		}
		score := cal.Evaluate(&cand, nil).Score
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
	sort.Slice(sp, func(i, j int) bool { return sp[i].name < sp[j].name })
	for _, s := range sp {
		fmt.Printf("%-24s %.5g\n", s.name, reflect.ValueOf(best).Elem().FieldByName(s.name).Float())
	}
	fmt.Println()
	fmt.Println(cal.Evaluate(best, os.Stdout).Summary())
}
