package wami

import (
	"context"
	"fmt"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/reconfig"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/tile"
	"presp/internal/vivado"
)

// The WAMI evaluation SoCs of Section VI.
//
// SoC_A..SoC_D (Table IV) carry four WAMI accelerators each, composed so
// the LUT profile lands in classes 1.2, 1.1, 1.3 and 2.1; SoC_D
// additionally moves the CPU tile into the reconfigurable part.
//
// SoC_X/Y/Z (Table VI) are the runtime-evaluation systems with two,
// three and four reconfigurable tiles; every tile hosts several
// accelerators swapped by the reconfiguration manager at run time.

// flowSoCAccs maps the Table IV SoCs to their accelerator index sets.
var flowSoCAccs = map[string][]int{
	"SoC_A": {KWarpImg, KSDUpdate, KMult, KMatrixInvert},      // {4, 8, 10, 9}, class 1.2
	"SoC_B": {KGrayscale, KGradient, KReshapeAdd, KDebayer},   // {2, 3, 11, 1}, class 1.1
	"SoC_C": {KHessian, KReshapeAdd, KSDUpdate, KGrayscale},   // {7, 11, 8, 2}, class 1.3
	"SoC_D": {KWarpImg, KSubtract, KMatrixInvert, KGrayscale}, // {4, 5, 9, 2}, class 2.1
}

// FlowSoCNames lists the Table IV SoCs in order.
func FlowSoCNames() []string { return []string{"SoC_A", "SoC_B", "SoC_C", "SoC_D"} }

// FlowSoC builds the Table IV SoC with the given name.
func FlowSoC(name string) (*socgen.Config, error) {
	accs, ok := flowSoCAccs[name]
	if !ok {
		return nil, fmt.Errorf("wami: unknown flow SoC %q (want SoC_A..SoC_D)", name)
	}
	c := &socgen.Config{Name: name, Board: "VC707", Cols: 3, Rows: 3, FreqHz: 78e6}
	reconfCPU := name == "SoC_D"
	if reconfCPU {
		c.Tiles = append(c.Tiles, tile.Tile{
			Name: "rt_cpu", Kind: tile.Reconf, Core: tile.Leon3, ReconfCPU: true,
			Pos: noc.Coord{X: 0, Y: 0},
		})
	} else {
		c.Tiles = append(c.Tiles, tile.Tile{Name: "cpu0", Kind: tile.CPU, Core: tile.Leon3, Pos: noc.Coord{X: 0, Y: 0}})
	}
	c.Tiles = append(c.Tiles,
		tile.Tile{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
		tile.Tile{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 2, Y: 0}},
	)
	pos := []noc.Coord{{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 0, Y: 2}}
	for i, idx := range accs {
		c.Tiles = append(c.Tiles, tile.Tile{
			Name:      fmt.Sprintf("rt_%d", i+1),
			Kind:      tile.Reconf,
			AccelName: Names[idx],
			Pos:       pos[i],
		})
	}
	return c, nil
}

// Allocation maps each reconfigurable tile of a runtime SoC to the
// ordered accelerator indices it hosts over a frame (Table VI).
type Allocation map[string][]int

// runtimeAllocs reproduces Table VI.
var runtimeAllocs = map[string]Allocation{
	"SoC_X": {
		"rt_1": {KDebayer, KWarpImg, KMatrixInvert, KMult, KSDUpdate},            // {1, 4, 9, 10, 8}
		"rt_2": {KGrayscale, KGradient, KSteepestDescent, KHessian, KReshapeAdd}, // {2, 3, 6, 7, 11}
	},
	"SoC_Y": {
		"rt_1": {KDebayer, KGradient, KHessian, KChangeDetection}, // {1, 3, 7, 12}
		"rt_2": {KGrayscale, KSteepestDescent, KSDUpdate},         // {2, 6, 8}
		"rt_3": {KWarpImg, KMatrixInvert, KMult},                  // {4, 9, 10}
	},
	"SoC_Z": {
		"rt_1": {KDebayer, KSteepestDescent, KChangeDetection}, // {1, 6, 12}
		"rt_2": {KGrayscale, KSubtract, KReshapeAdd},           // {2, 5, 11}
		"rt_3": {KWarpImg, KMult, KHessian},                    // {4, 10, 7}
		"rt_4": {KGradient, KSDUpdate, KMatrixInvert},          // {3, 8, 9}
	},
}

// RuntimeSoCNames lists the Table VI SoCs in order.
func RuntimeSoCNames() []string { return []string{"SoC_X", "SoC_Y", "SoC_Z"} }

// RuntimeSoC builds the named runtime-evaluation SoC and returns its
// configuration together with the Table VI accelerator allocation.
// Kernels absent from the allocation (e.g. Subtract and Change-Detection
// on SoC_X) fall back to software on the CPU tile at run time.
func RuntimeSoC(name string) (*socgen.Config, Allocation, error) {
	alloc, ok := runtimeAllocs[name]
	if !ok {
		return nil, nil, fmt.Errorf("wami: unknown runtime SoC %q (want SoC_X/SoC_Y/SoC_Z)", name)
	}
	nRT := len(alloc)
	c := &socgen.Config{Name: name, Board: "VC707", Cols: 3, Rows: 3, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Core: tile.Leon3, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 2, Y: 0}},
		},
	}
	pos := []noc.Coord{{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 0, Y: 2}}
	for i := 1; i <= nRT; i++ {
		tname := fmt.Sprintf("rt_%d", i)
		accs, ok := alloc[tname]
		if !ok || len(accs) == 0 {
			return nil, nil, fmt.Errorf("wami: %s: allocation missing tile %s", name, tname)
		}
		c.Tiles = append(c.Tiles, tile.Tile{
			Name:      tname,
			Kind:      tile.Reconf,
			AccelName: Names[largestOf(accs)],
			Pos:       pos[i-1],
		})
	}
	return c, alloc, nil
}

// largestOf returns the accelerator index with the largest LUT profile —
// the module that sizes the tile's partition.
func largestOf(accs []int) int {
	best := accs[0]
	for _, a := range accs[1:] {
		if lutProfile[a] > lutProfile[best] {
			best = a
		}
	}
	return best
}

// MissingKernels returns the Fig 3 kernels absent from an allocation
// (these run in software on the CPU at run time).
func MissingKernels(alloc Allocation) []int {
	present := make(map[int]bool)
	for _, accs := range alloc {
		for _, a := range accs {
			present[a] = true
		}
	}
	var out []int
	for idx := 1; idx <= NumKernels; idx++ {
		if !present[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// Boot brings up a runtime SoC for the WAMI application, the one
// sequence behind presp-sim, Fig 4, Table VI and the facade's RunWAMI:
// it elaborates cfg against reg, floorplans the design under model (nil
// means the default cost model), boots a reconfiguration manager with
// rcfg on a fresh engine, and generates and registers a partial
// bitstream for every (tile, kernel) pair of alloc, compressed when
// compress is set. It returns the manager and the registered images by
// tile and accelerator name.
func Boot(cfg *socgen.Config, alloc Allocation, reg *accel.Registry, model *vivado.CostModel, rcfg reconfig.Config, compress bool) (*reconfig.Runtime, map[string]map[string]*bitstream.Bitstream, error) {
	d, err := socgen.Elaborate(cfg, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("wami: %s: %w", cfg.Name, err)
	}
	plan, err := flow.FloorplanDesign(d, model)
	if err != nil {
		return nil, nil, err
	}
	rt, err := reconfig.New(sim.NewEngine(), d, reg, plan, rcfg)
	if err != nil {
		return nil, nil, err
	}
	byTile := make(map[string][]string, len(alloc))
	for tileName, idxs := range alloc {
		for _, idx := range idxs {
			byTile[tileName] = append(byTile[tileName], Names[idx])
		}
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, byTile, reg, compress, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("wami: bitstreams for %s: %w", cfg.Name, err)
	}
	if err := rt.RegisterBitstreams(bss); err != nil {
		return nil, nil, err
	}
	return rt, bss, nil
}
