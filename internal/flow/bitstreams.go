package flow

import (
	"context"
	"fmt"
	"sort"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/floorplan"
	"presp/internal/fpga"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// GenerateRuntimeBitstreams produces one partial bitstream per
// (reconfigurable tile, accelerator) pair of a runtime allocation — the
// set the reconfiguration manager swaps among at run time (Table VI).
// The returned map is tile name -> accelerator name -> bitstream.
//
// Every accelerator is implemented in-context against the tile's pblock,
// so the flow checks it fits the partition the floorplanner sized for
// the tile's largest module. Tiles and accelerators are validated in
// sorted order — error selection and bitstream naming never depend on
// map iteration order — and the generation jobs fan out on the shared
// worker-pool scheduler, bounded by workers (0 selects GOMAXPROCS; a
// negative count is rejected by NormalizeWorkers before any job runs)
// and by ctx: cancellation stops generation at the next job boundary and
// drains the pool. The outputs are identical for every worker count —
// the fault-injection determinism suite runs the same seeded plan
// against bitstream sets generated at different widths to prove it.
func GenerateRuntimeBitstreams(ctx context.Context, d *socgen.Design, plan *floorplan.Plan, alloc map[string][]string, reg *accel.Registry, compress bool, workers int) (map[string]map[string]*bitstream.Bitstream, error) {
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		return nil, err
	}
	tiles := make([]string, 0, len(alloc))
	for tileName := range alloc {
		tiles = append(tiles, tileName)
	}
	sort.Strings(tiles)

	// Validate the whole allocation up front, in deterministic order.
	type task struct {
		tile, acc, name string
		pb              fpga.Pblock
		res             fpga.Resources
	}
	var tasks []task
	for _, tileName := range tiles {
		rp, err := d.FindRP(tileName)
		if err != nil {
			return nil, err
		}
		pb, ok := plan.Pblocks[rp.Name]
		if !ok {
			return nil, fmt.Errorf("flow: no pblock for partition %s", rp.Name)
		}
		for _, accName := range alloc[tileName] {
			desc, err := reg.Lookup(accName)
			if err != nil {
				return nil, fmt.Errorf("flow: tile %s: %w", tileName, err)
			}
			if !pb.ResourcesOn(d.Dev).Covers(desc.Resources) {
				return nil, fmt.Errorf("flow: accelerator %s (%s) does not fit tile %s's partition",
					accName, desc.Resources, tileName)
			}
			tasks = append(tasks, task{
				tile: tileName,
				acc:  accName,
				name: fmt.Sprintf("%s.%s.%s.pbs", d.Cfg.Name, tileName, accName),
				pb:   pb,
				res:  desc.Resources,
			})
		}
	}

	// Fan the independent generation jobs out on the worker pool.
	g := &graph{}
	generated := make([]*bitstream.Bitstream, len(tasks))
	for i, tk := range tasks {
		i, tk := i, tk
		id := fmt.Sprintf("bitgen/%03d/%s.%s", i, tk.tile, tk.acc)
		g.add(id, StageBitgen, nil, func(ctx context.Context) (vivado.Minutes, error) {
			bs, t, err := tool.WritePartialBitstream(ctx, tk.name, tk.pb, tk.res, compress)
			if err != nil {
				return 0, err
			}
			generated[i] = bs
			return t, nil
		})
	}
	if _, errs, err := g.execute(ctx, Options{Workers: workers}); err != nil {
		return nil, err
	} else if len(errs) > 0 {
		return nil, errs[0]
	}

	out := make(map[string]map[string]*bitstream.Bitstream, len(alloc))
	for i, tk := range tasks {
		perTile, ok := out[tk.tile]
		if !ok {
			perTile = make(map[string]*bitstream.Bitstream)
			out[tk.tile] = perTile
		}
		perTile[tk.acc] = generated[i]
	}
	return out, nil
}

// fullChunks is the number of chunk jobs the full-device image is split
// into. It is fixed rather than derived from Options.Workers, so the
// job graph, and with it Result.Jobs, is the same at every worker
// count. Four chunks keep two workers busy at the graph's tail, where
// the image would otherwise run alone, while the per-chunk costs —
// boundary stitching, a pooled encoder, a scheduler round trip — stay
// small.
const fullChunks = 4

// addFullBitgen adds the full-device bitstream name to g, after deps:
// fullChunks chunk jobs ("bitgen/full/<i>"), each encoding one word
// range of the image on the worker pool, then the "bitgen/full" job,
// which stitches them byte-identically to a one-pass encoding. The
// assembly is the bitgen operation: it alone passes the fault gate,
// carries the modelled minutes (chunks carry 0), fills the stage cache
// under sk's "bitgen/full" key and publishes through apply. When that
// key hits, bitgen/full is settled and no chunk job is added.
func addFullBitgen(g *graph, tool *vivado.Tool, sk *stageKeys, deps []int, name string, used fpga.Resources, compress bool, apply func(*bitstream.Bitstream, vivado.Minutes)) {
	const id = "bitgen/full"
	if _, ok := settleStage(g, sk, id, StageBitgen, apply); ok {
		return
	}
	im := tool.FullImage(name, used, compress)
	chunks := make([]bitstream.Chunk, fullChunks)
	hs := make([]int, fullChunks)
	for i := range chunks {
		i := i
		hs[i] = g.add(fmt.Sprintf("%s/%d", id, i), StageBitgen, deps, func(ctx context.Context) (vivado.Minutes, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			chunks[i] = im.Chunk(i, fullChunks)
			return 0, nil
		})
	}
	g.add(id, StageBitgen, hs, stageRun(sk, id,
		func(ctx context.Context) (*bitstream.Bitstream, vivado.Minutes, error) {
			return tool.AssembleFullBitstream(ctx, im, chunks)
		}, apply))
}
