// Stage-artifact keys: the content addresses behind incremental
// re-flow. Each post-synthesis job — floorplan, script generation, the
// implementation runs, bitstream generation — derives a key from
// everything its result depends on: the design digest inputs, the
// device, the cost model, the partition module set and the *upstream
// artifact keys*, so invalidation follows the dependency graph. Editing
// one partition's content changes its synthesis checkpoint key, which
// changes exactly the implementation run that consumes it and the
// partial bitstreams of that run's partitions — the floorplan, the
// static pre-route, every other group and the full-device bitstream
// keep their keys and skip. See DESIGN.md §16.
package flow

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"presp/internal/core"
	"presp/internal/rtl"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// DesignDigest fingerprints the parts of a design a run's cached
// results depend on: configuration name, device identity and capacity,
// the static module set and every partition's name, content and
// resource envelope. A frozen design's digest is computed once.
func DesignDigest(d *socgen.Design) string {
	if m := memoOf(d); m != nil {
		return m.digest
	}
	return designDigest(d)
}

// designDigest computes DesignDigest.
func designDigest(d *socgen.Design) string {
	h := vivado.NewDigest()
	h.Str(d.Cfg.Name)
	h.Str(d.Dev.Name)
	h.Res(d.Dev.Total)
	for _, m := range d.StaticModules {
		h.Str(m.Name)
		h.Res(m.TotalCost())
	}
	for _, rp := range d.RPs {
		h.Str(rp.Name)
		if rp.Content != nil {
			h.Str(rp.Content.Name)
		}
		h.Res(rp.Resources)
	}
	return h.Sum()
}

// newArtifactDigest starts one stage key, framed by its kind.
func newArtifactDigest(kind string) *vivado.Digest {
	d := vivado.NewDigest()
	d.Str(kind)
	return d
}

// stageKeys holds the artifact keys of one partitioned run, by the ID
// of the job each key addresses. The synthesis jobs' keys
// ("synth/static", "synth/<rp>") are the checkpoint-cache keys
// synthesis is handed; it derives none itself. The other keys address
// the stage cache, which cache names: nil when the run has none, or
// runs under a fault plan. A nil *stageKeys, or a job without a key,
// disables caching for that job.
type stageKeys struct {
	cache *vivado.StageCache
	keys  map[string]string // job ID -> artifact key
}

// key returns job id's artifact key, "" when it has none.
func (sk *stageKeys) key(id string) string {
	if sk == nil {
		return ""
	}
	return sk.keys[id]
}

// stageKey returns job id's stage-cache key: its artifact key when the
// run reads and fills the stage cache, "" otherwise.
func (sk *stageKeys) stageKey(id string) string {
	if sk == nil || sk.cache == nil {
		return ""
	}
	return sk.keys[id]
}

// groupJobID names the implementation job of strategy group gi.
func groupJobID(gi int) string {
	return fmt.Sprintf("impl/group_%03d", gi)
}

// designMemo is what the flow derives from one frozen design and keeps
// for the life of the process: the design digest, the static top and
// the finished stage-key map of every run signature seen so far. A
// frozen design is never written again (socgen.Design.Freeze), and each
// value is a pure function of the design and the signature, so a
// memoised value is the very value a fresh derivation would produce.
// Every value is shared read-only, like a settled artifact.
type designMemo struct {
	digest    string
	staticTop *rtl.Module
	keys      sync.Map // runSignature -> map[string]string
}

// runSignature is what a memoised stage-key map depends on besides the
// design. The device is the design's and the cost model is the default
// (the memo serves only runs with Options.Model nil), so what is left
// is the flow mode, the strategy — its digest covers kind, τ and the
// exact group assignment, and two strategies with one digest already
// share every key derived from it — and compression.
type runSignature struct {
	mode     flowMode
	strategy vivado.Digest
	compress bool
}

// designMemos maps each frozen design to its memo. Only frozen designs
// enter — the presets experiments.PresetDesign shares — so the map is
// bounded by them, and each memo by the run signatures its preset admits.
// It is process-wide, like the designs it serves: every value is a pure
// function of its key, so a caller reading another caller's entry gets
// exactly what it would have derived itself.
var designMemos sync.Map // *socgen.Design -> *designMemo

// memoOf returns frozen design d's memo, creating it on first use; nil
// when d is not frozen.
func memoOf(d *socgen.Design) *designMemo {
	if !d.Frozen() {
		return nil
	}
	if m, ok := designMemos.Load(d); ok {
		return m.(*designMemo)
	}
	m, _ := designMemos.LoadOrStore(d, &designMemo{digest: designDigest(d), staticTop: BuildStaticTop(d)})
	return m.(*designMemo)
}

// memoFor returns the memo a run of d under opt reads its static top and
// stage keys from: that of a frozen design under the default cost
// model, whatever caches or fault plan the run has — the keys depend on
// neither. Every other run — an unfrozen design that a caller may edit
// between runs, a custom model — derives both afresh, and gets nil.
func memoFor(d *socgen.Design, opt Options) *designMemo {
	if opt.Model != nil {
		return nil
	}
	return memoOf(d)
}

// staticTopOf returns the static top a run of d synthesizes: the
// memoised one, or BuildStaticTop(d) when m is nil.
func (m *designMemo) staticTopOf(d *socgen.Design) *rtl.Module {
	if m == nil {
		return BuildStaticTop(d)
	}
	return m.staticTop
}

// buildStageKeys derives every key of a partitioned run up front — all
// inputs are known before the first job executes — for a run with a
// checkpoint cache or a stage cache; a run with neither keys nothing
// and gets nil. Stage keys address the stage cache only in a run
// without a fault plan, because a cache skip would bypass the injected
// fault and break the plan's determinism contract; the synthesis keys
// serve the checkpoint cache in every run, whose fault gate comes first.
// staticTop is the static top the run synthesizes, built once per run
// (m's when m is set). m is the run's memo (memoFor): with one, the key
// map is derived once per run signature and then only looked up — the
// returned map is the memoised one, shared read-only like a settled
// artifact; with none, it is derived afresh.
func buildStageKeys(d *socgen.Design, m *designMemo, staticTop *rtl.Module, tool *vivado.Tool, strat *core.Strategy, opt Options, mode flowMode) *stageKeys {
	if opt.Cache == nil && opt.StageCache == nil {
		return nil
	}
	sd := strategyDigest(strat)
	var keys map[string]string
	if m == nil {
		keys = deriveStageKeys(d, staticTop, tool, strat, sd.Sum(), opt.Compress, mode)
	} else {
		sig := runSignature{mode: mode, strategy: sd, compress: opt.Compress}
		v, ok := m.keys.Load(sig)
		if !ok {
			// Concurrent first runs may each derive the map; all derive
			// the same one and the first stored is kept.
			v, _ = m.keys.LoadOrStore(sig, deriveStageKeys(d, staticTop, tool, strat, sd.Sum(), opt.Compress, mode))
		}
		keys = v.(map[string]string)
	}
	sk := &stageKeys{keys: keys}
	if opt.FaultPlan == nil {
		sk.cache = opt.StageCache
	}
	return sk
}

// strategyDigest digests a strategy's kind, degree and exact group
// assignment.
func strategyDigest(strat *core.Strategy) vivado.Digest {
	sd := newArtifactDigest("strategy/v1")
	sd.Str(strat.Kind.String())
	sd.U64(uint64(strat.Tau))
	for _, group := range strat.Groups {
		for _, name := range group {
			sd.Str(name)
		}
		sd.Str("|")
	}
	return *sd
}

// deriveStageKeys computes the key map of buildStageKeys afresh. Its
// synthesis keys are the upstream addresses of the implementation
// stage: the checkpoint cache's own content digests. A design with a
// contentless partition, whose synthesis key is undefined, or a cost
// model that does not marshal gets only the synthesis keys it can: the
// post-synthesis stages stay unkeyed.
func deriveStageKeys(d *socgen.Design, staticTop *rtl.Module, tool *vivado.Tool, strat *core.Strategy, strategyDigest string, compress bool, mode flowMode) map[string]string {
	keys := make(map[string]string, 7+len(strat.Groups)+2*len(d.RPs))
	staticSynthKey := tool.CheckpointKey(staticTop, false)
	keys["synth/static"] = staticSynthKey
	contentless := false
	for _, rp := range d.RPs {
		if rp.Content == nil {
			contentless = true
			continue
		}
		keys["synth/"+rp.Name] = tool.CheckpointKey(rp.Content, true)
	}
	if contentless {
		return keys
	}
	modelBytes, err := json.Marshal(tool.Model())
	if err != nil {
		return keys
	}
	modelDigest := string(modelBytes)

	// Floorplan: device geometry, cost model (pblock slack), the static
	// envelope and every partition's name, resource envelope and the
	// content properties the DFX design rule checks read — the content
	// *name* and clock-topology flags, deliberately not the content's
	// cost vector, so re-costing a kernel keeps the floorplan hit while
	// anything DRC-visible invalidates it.
	fp := newArtifactDigest("floorplan/v1")
	fp.Str(mode.name())
	fp.Str(d.Cfg.Name)
	fp.Str(d.Dev.Name)
	fp.Res(d.Dev.Total)
	fp.Str(modelDigest)
	fp.Res(d.StaticResources)
	for _, rp := range d.RPs {
		fp.Str(rp.Name)
		fp.Res(rp.Resources)
		fp.Str(rp.Content.Name)
		fp.Flag(rp.Content.ContainsClockModifying())
		fp.Flag(rp.Content.DrivesClockOut())
	}
	fpKey := fp.Sum()
	keys["floorplan"] = fpKey

	// Scripts render the floorplan under the chosen strategy; both are
	// already digests.
	sc := newArtifactDigest("scripts/v1")
	sc.Str(fpKey)
	sc.Str(strategyDigest)
	keys["scripts"] = sc.Sum()

	// implKey is the key of the run the full image hangs off: the serial
	// run, or the static pre-route. Each partial bitstream hangs off the
	// run that implemented its partition — the unit of incremental
	// invalidation.
	var implKey string
	switch strat.Kind {
	case core.Serial:
		// The serial run implements everything in one instance, so every
		// partition's content is an input.
		se := newArtifactDigest("impl/serial/v1")
		se.Str(fpKey)
		se.Str(strategyDigest)
		se.Res(d.StaticResources.Add(d.ReconfigurableResources()))
		se.U64(uint64(len(d.RPs)))
		se.Str(staticSynthKey)
		for _, rp := range d.RPs {
			se.Str(keys["synth/"+rp.Name])
		}
		implKey = se.Sum()
		keys["impl/serial"] = implKey
		for _, rp := range d.RPs {
			keys["bitgen/"+rp.Name] = partialKey(implKey, rp.Name, d, compress)
		}
	default:
		// Static pre-route: floorplan plus the static checkpoint and the
		// reconfigurable envelope — no partition content, so kernel edits
		// never invalidate it.
		st := newArtifactDigest("impl/static/v1")
		st.Str(fpKey)
		st.Str(staticSynthKey)
		st.Res(d.ReconfigurableResources())
		implKey = st.Sum()
		keys["impl/static"] = implKey

		for gi, group := range strat.Groups {
			gr := newArtifactDigest("impl/group/v1")
			gr.Str(implKey)
			gr.Str(strategyDigest)
			gr.U64(uint64(gi))
			for _, name := range group {
				gr.Str(name)
				gr.Str(keys["synth/"+name])
			}
			grKey := gr.Sum()
			keys[groupJobID(gi)] = grKey
			for _, name := range group {
				keys["bitgen/"+name] = partialKey(grKey, name, d, compress)
			}
		}
	}

	// Full-device bitstream: static + placeholder partitions, so it
	// hangs off the static implementation (or the serial run), never a
	// partition's content.
	bf := newArtifactDigest("bitgen/full/v1")
	bf.Str(d.Cfg.Name)
	bf.Res(d.StaticResources.Add(d.ReconfigurableResources()))
	bf.Res(d.Dev.Total)
	bf.Flag(compress)
	bf.Str(implKey)
	keys["bitgen/full"] = bf.Sum()
	return keys
}

// partialKey derives one partition's partial-bitstream key from its
// implementation run's key and the envelope the bitstream spans.
func partialKey(implKey, rpName string, d *socgen.Design, compress bool) string {
	bp := newArtifactDigest("bitgen/partial/v1")
	bp.Str(implKey)
	bp.Str(rpName)
	bp.Str(d.Cfg.Name)
	for _, rp := range d.RPs {
		if rp.Name == rpName {
			bp.Res(rp.Resources)
		}
	}
	bp.Flag(compress)
	return bp.Sum()
}

// settleStage asks the stage cache for job id's artifact while the
// graph is built. On a hit it publishes the cached value through apply —
// the very value the populating run published, shared and never
// mutated — and adds id to g as a settled job, which never runs; it
// returns the job's handle. A keyed miss is counted on g and leaves the
// job to the caller.
func settleStage[T any](g *graph, sk *stageKeys, id string, stage Stage, apply func(T, vivado.Minutes)) (int, bool) {
	key := sk.stageKey(id)
	if key == "" {
		return 0, false
	}
	v, t, ok := vivado.LookupStage[T](sk.cache, key)
	if !ok {
		g.stageMisses++
		return 0, false
	}
	apply(v, t)
	return g.settle(id, stage, t), true
}

// stageRun wraps job id's work function: run produces the stage value
// and its modelled minutes, apply publishes the value into the run's
// result (from a worker goroutine, under the scheduler's
// happens-before) and a keyed value is stored write-through. Only the
// disk tier encodes: memory stores never touch JSON.
func stageRun[T any](sk *stageKeys, id string, run func(ctx context.Context) (T, vivado.Minutes, error), apply func(T, vivado.Minutes)) func(ctx context.Context) (vivado.Minutes, error) {
	key := sk.stageKey(id)
	return func(ctx context.Context) (vivado.Minutes, error) {
		v, t, err := run(ctx)
		if err != nil {
			return 0, err
		}
		apply(v, t)
		if key != "" {
			// Best-effort write-through: a full disk loses the artifact,
			// never the run.
			sk.cache.Store(key, v, t) //nolint:errcheck
		}
		return t, nil
	}
}

// addStage adds job id to g and returns its handle: settled when the
// stage cache holds its artifact, otherwise run after deps by stageRun.
// A job's run may read only what its direct dependencies or graph
// construction published: a settled dependency adds no edge, so it does
// not order the job after its own dependencies.
func addStage[T any](g *graph, sk *stageKeys, id string, stage Stage, deps []int, run func(ctx context.Context) (T, vivado.Minutes, error), apply func(T, vivado.Minutes)) int {
	if h, ok := settleStage(g, sk, id, stage, apply); ok {
		return h
	}
	return g.add(id, stage, deps, stageRun(sk, id, run, apply))
}
