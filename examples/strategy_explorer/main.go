// Strategy explorer: sweep the design space of reconfigurable SoCs and
// watch the size-driven algorithm switch between serial, semi-parallel
// and fully-parallel implementations — an empirical regeneration of the
// paper's Table I from whole-flow runs rather than the decision rule.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"presp"
)

// design builds a 4x4 SoC with n reconfigurable tiles of the given
// accelerator type; bigCPU selects the CVA6 core to grow the static
// part.
func design(name string, n int, acc string) *presp.Config {
	cfg := &presp.Config{
		Name: name, Board: "VC707", Cols: 4, Rows: 4, FreqHz: 78e6,
		Tiles: []presp.Tile{
			{Name: "cpu0", Kind: presp.TileCPU, Pos: presp.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: presp.TileMem, Pos: presp.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: presp.TileAux, Pos: presp.Coord{X: 2, Y: 0}},
		},
	}
	slots := []presp.Coord{
		{X: 3, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1},
		{X: 0, Y: 2}, {X: 1, Y: 2}, {X: 2, Y: 2}, {X: 3, Y: 2},
		{X: 0, Y: 3}, {X: 1, Y: 3}, {X: 2, Y: 3},
	}
	for i := 0; i < n && i < len(slots); i++ {
		cfg.Tiles = append(cfg.Tiles, presp.Tile{
			Name:      fmt.Sprintf("rt_%d", i+1),
			Kind:      presp.TileReconf,
			AccelName: acc,
			Pos:       slots[i],
		})
	}
	return cfg
}

func main() {
	p, err := presp.NewPlatform("VC707")
	if err != nil {
		log.Fatal(err)
	}

	// The sweep is interruptible: Ctrl-C (or the safety timeout) stops
	// the current flow run at its next job boundary instead of dying
	// mid-synthesis, and the checkpoint cache stays valid for a rerun.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("design space sweep: accelerator mix vs chosen strategy (modelled minutes)")
	fmt.Printf("%-22s %6s %6s %6s %-6s %-15s %8s %8s %8s\n",
		"design", "κ", "α_av", "γ", "class", "chosen", "serial", "semi", "fully")

	cases := []struct {
		label string
		n     int
		acc   string
	}{
		{"8 small MACs", 8, "mac"},
		{"12 small MACs", 12, "mac"},
		{"2 sorters", 2, "sort"},
		{"3 sorters", 3, "sort"},
		{"3 FFTs", 3, "fft"},
		{"4 conv engines", 4, "conv2d"},
		{"1 conv engine", 1, "conv2d"},
	}
	for _, c := range cases {
		cfg := design(c.label, c.n, c.acc)
		soc, err := p.BuildSoC(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m, err := soc.Metrics()
		if err != nil {
			log.Fatal(err)
		}
		cls, err := soc.Classify()
		if err != nil {
			log.Fatal(err)
		}
		chosen, err := p.ChooseStrategy(soc)
		if err != nil {
			log.Fatal(err)
		}
		// Evaluate all three strategies to see whether the choice wins.
		times := map[presp.StrategyKind]float64{}
		for _, kind := range []presp.StrategyKind{presp.Serial, presp.SemiParallel, presp.FullyParallel} {
			t, ok, err := runWith(ctx, p, soc, kind)
			if err != nil {
				log.Fatal(err) // interrupted or timed out: stop the sweep
			}
			if ok {
				times[kind] = t
			}
		}
		fmt.Printf("%-22s %6.2f %6.3f %6.2f %-6s %-15s %8s %8s %8s\n",
			c.label, m.Kappa, m.AlphaAv, m.Gamma, cls, chosen.Kind,
			fmtTime(times, presp.Serial), fmtTime(times, presp.SemiParallel), fmtTime(times, presp.FullyParallel))
	}

	// Probing three strategies per design re-synthesizes nothing after
	// the first run: the platform's checkpoint cache serves the repeats.
	hits, misses := p.CacheStats()
	fmt.Printf("\ncheckpoint cache: %d synthesis jobs served from cache, %d synthesized cold\n", hits, misses)
}

// runWith forces one strategy and returns the P&R wall time; strategies
// that do not apply (semi-parallel with too few tiles) report !ok. A
// cancelled or timed-out run is an error, not a silent skip.
func runWith(ctx context.Context, p *presp.Platform, soc *presp.SoC, kind presp.StrategyKind) (float64, bool, error) {
	tau := 1
	switch kind {
	case presp.SemiParallel:
		tau = 2
	case presp.FullyParallel:
		tau = len(soc.Design.RPs)
	}
	strat, err := forceStrategy(soc, kind, tau)
	if err != nil {
		return 0, false, nil
	}
	// A one-minute safety net per run; modelled time is unaffected.
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	res, err := p.RunFlow(ctx, soc, presp.FlowOptions{
		Strategy:       strat,
		SkipBitstreams: true,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, false, err
		}
		return 0, false, nil
	}
	return float64(res.PRWall), true, nil
}

func forceStrategy(soc *presp.SoC, kind presp.StrategyKind, tau int) (*presp.Strategy, error) {
	return presp.ForceStrategy(soc, kind, tau)
}

func fmtTime(times map[presp.StrategyKind]float64, k presp.StrategyKind) string {
	t, ok := times[k]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f", t)
}
