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

	"presp/internal/core"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// DesignDigest fingerprints the parts of a design a run's cached
// results depend on: configuration name, device identity and capacity,
// the static module set and every partition's name, content and
// resource envelope.
func DesignDigest(d *socgen.Design) string {
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

// stageKeys holds the derived artifact keys of one partitioned run.
// Empty keys (nil receiver, or a partition without content) disable
// caching for the affected jobs; everything else probes the cache.
type stageKeys struct {
	cache      *vivado.StageCache
	floorplan  string
	scripts    string
	implStatic string
	serial     string
	groups     []string // one per strategy group
	bitgenFull string
	partials   map[string]string // partition name -> partial-bitgen key
}

// buildStageKeys derives every stage key of a partitioned run up front —
// all inputs are known before the first job executes. A design with a
// contentless partition cannot be keyed (its synthesis key is
// undefined); runs under a fault plan are not keyed either, because a
// cache skip would bypass the injected fault and break the plan's
// determinism contract. Both return nil, which disables stage caching.
func buildStageKeys(d *socgen.Design, tool *vivado.Tool, strat *core.Strategy, opt Options, mode flowMode) *stageKeys {
	if opt.StageCache == nil || opt.FaultPlan != nil {
		return nil
	}
	for _, rp := range d.RPs {
		if rp.Content == nil {
			return nil
		}
	}
	modelBytes, err := json.Marshal(tool.Model())
	if err != nil {
		return nil
	}
	modelDigest := string(modelBytes)

	// Strategy digest: kind, degree and the exact group assignment.
	sd := newArtifactDigest("strategy/v1")
	sd.Str(strat.Kind.String())
	sd.U64(uint64(strat.Tau))
	for _, group := range strat.Groups {
		for _, name := range group {
			sd.Str(name)
		}
		sd.Str("|")
	}
	strategyDigest := sd.Sum()

	sk := &stageKeys{cache: opt.StageCache, partials: make(map[string]string, len(d.RPs))}

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
	sk.floorplan = fp.Sum()

	// Scripts render the floorplan under the chosen strategy; both are
	// already digests.
	sc := newArtifactDigest("scripts/v1")
	sc.Str(sk.floorplan)
	sc.Str(strategyDigest)
	sk.scripts = sc.Sum()

	// Synthesis keys are the upstream addresses of the implementation
	// stage: the checkpoint cache's own content digests.
	staticSynthKey := tool.CheckpointKey(BuildStaticTop(d), false)
	synthKey := make(map[string]string, len(d.RPs))
	for _, rp := range d.RPs {
		synthKey[rp.Name] = tool.CheckpointKey(rp.Content, true)
	}

	switch strat.Kind {
	case core.Serial:
		// The serial run implements everything in one instance, so every
		// partition's content is an input.
		se := newArtifactDigest("impl/serial/v1")
		se.Str(sk.floorplan)
		se.Str(strategyDigest)
		se.Res(d.StaticResources.Add(d.ReconfigurableResources()))
		se.U64(uint64(len(d.RPs)))
		se.Str(staticSynthKey)
		for _, rp := range d.RPs {
			se.Str(synthKey[rp.Name])
		}
		sk.serial = se.Sum()
	default:
		// Static pre-route: floorplan plus the static checkpoint and the
		// reconfigurable envelope — no partition content, so kernel edits
		// never invalidate it.
		st := newArtifactDigest("impl/static/v1")
		st.Str(sk.floorplan)
		st.Str(staticSynthKey)
		st.Res(d.ReconfigurableResources())
		sk.implStatic = st.Sum()

		sk.groups = make([]string, len(strat.Groups))
		for gi, group := range strat.Groups {
			gr := newArtifactDigest("impl/group/v1")
			gr.Str(sk.implStatic)
			gr.Str(strategyDigest)
			gr.U64(uint64(gi))
			for _, name := range group {
				gr.Str(name)
				gr.Str(synthKey[name])
			}
			sk.groups[gi] = gr.Sum()
		}
	}

	// Full-device bitstream: static + placeholder partitions, so it
	// hangs off the static implementation (or the serial run), never a
	// partition's content.
	bf := newArtifactDigest("bitgen/full/v1")
	bf.Str(d.Cfg.Name)
	bf.Res(d.StaticResources.Add(d.ReconfigurableResources()))
	bf.Res(d.Dev.Total)
	bf.Flag(opt.Compress)
	if strat.Kind == core.Serial {
		bf.Str(sk.serial)
	} else {
		bf.Str(sk.implStatic)
	}
	sk.bitgenFull = bf.Sum()

	// Partial bitstreams hang off the implementation run that produced
	// their partition — the unit of incremental invalidation.
	for gi, group := range strat.Groups {
		for _, name := range group {
			sk.partials[name] = partialKey(sk.groups[gi], name, d, opt.Compress)
		}
	}
	if strat.Kind == core.Serial {
		for _, rp := range d.RPs {
			sk.partials[rp.Name] = partialKey(sk.serial, rp.Name, d, opt.Compress)
		}
	}
	return sk
}

// The accessors below are nil-safe: a nil *stageKeys (caching disabled)
// yields empty keys, which cachedStage treats as "no probe".

func (sk *stageKeys) floorplanKey() string {
	if sk == nil {
		return ""
	}
	return sk.floorplan
}

func (sk *stageKeys) scriptsKey() string {
	if sk == nil {
		return ""
	}
	return sk.scripts
}

func (sk *stageKeys) implStaticKey() string {
	if sk == nil {
		return ""
	}
	return sk.implStatic
}

func (sk *stageKeys) serialKey() string {
	if sk == nil {
		return ""
	}
	return sk.serial
}

func (sk *stageKeys) groupKey(gi int) string {
	if sk == nil || gi < 0 || gi >= len(sk.groups) {
		return ""
	}
	return sk.groups[gi]
}

func (sk *stageKeys) bitgenFullKey() string {
	if sk == nil {
		return ""
	}
	return sk.bitgenFull
}

func (sk *stageKeys) partialKeyFor(rpName string) string {
	if sk == nil {
		return ""
	}
	return sk.partials[rpName]
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

// stageEnvelope is the JSON body a stage artifact persists: the job's
// modelled duration plus its stage-specific payload.
type stageEnvelope struct {
	Minutes vivado.Minutes  `json:"minutes"`
	Payload json.RawMessage `json:"payload"`
}

// cachedStage wraps one job's work function with its stage-artifact
// probe/store pair. run produces the stage value and its modelled
// minutes; apply publishes the value into the run's result exactly as a
// live execution would (it is called from worker goroutines under the
// scheduler's happens-before, like the run body itself). On a probe hit
// the scheduler skips run entirely; on a miss (or with no cache/key)
// the wrapped run executes, publishes, and stores the artifact
// write-through. A cached body that fails to decode reports a miss —
// the disk tier already quarantines corrupt files, and an in-memory
// decode failure just re-runs the job.
func cachedStage[T any](sk *stageKeys, key string, run func(ctx context.Context) (T, vivado.Minutes, error), apply func(T, vivado.Minutes)) (probe func() (vivado.Minutes, bool), wrapped func(ctx context.Context) (vivado.Minutes, error)) {
	wrapped = func(ctx context.Context) (vivado.Minutes, error) {
		v, t, err := run(ctx)
		if err != nil {
			return 0, err
		}
		apply(v, t)
		if sk != nil && key != "" {
			if payload, err := json.Marshal(v); err == nil {
				body, err := json.Marshal(stageEnvelope{Minutes: t, Payload: payload})
				if err == nil {
					// Best-effort write-through: a full disk loses the
					// artifact, never the run.
					sk.cache.Store(key, body) //nolint:errcheck
				}
			}
		}
		return t, nil
	}
	if sk == nil || key == "" {
		return nil, wrapped
	}
	probe = func() (vivado.Minutes, bool) {
		body, ok := sk.cache.Lookup(key)
		if !ok {
			return 0, false
		}
		var env stageEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return 0, false
		}
		var v T
		if err := json.Unmarshal(env.Payload, &v); err != nil {
			return 0, false
		}
		apply(v, env.Minutes)
		return env.Minutes, true
	}
	return probe, wrapped
}
