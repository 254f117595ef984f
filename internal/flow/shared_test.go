// Shared-design suite: experiments.PresetDesign hands every caller one
// frozen design per preset, and the flow memoises that design's static
// top and stage keys. These tests prove the sharing sound — no flow
// writes a shared design or its memo — and the memo exact: every key it
// serves equals a fresh derivation, and a run served from it is
// identical to a cold run of a fresh design.
package flow_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"presp/internal/core"
	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/rtl"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// presetPair returns a preset's frozen shared design and a fresh,
// unfrozen elaboration of the same configuration.
func presetPair(t *testing.T, name string) (shared, fresh *socgen.Design) {
	t.Helper()
	shared, err := experiments.PresetDesign(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := experiments.PresetConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err = experiments.ElaborateConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if !shared.Frozen() || fresh.Frozen() {
		t.Fatalf("%s: shared frozen=%v, fresh frozen=%v", name, shared.Frozen(), fresh.Frozen())
	}
	return shared, fresh
}

// TestFlowsNeverWriteSharedDesigns is the proof that sharing one design
// per preset is safe: for every preset, every flow and strategy runs
// concurrently on the shared design, with and without a fault plan and
// through shared checkpoint and stage caches (so keyed, hit, memoised
// and single-flight paths all run), and the design must still deep-equal
// the copy taken before — and the static top the flow memoised for it
// must still deep-equal one built from that copy. The checkpoint cache
// serves its entries shared, so every checkpoint it holds under the
// preset's synthesis keys must still deep-equal a fresh synthesis of
// the same module. Under -race a write that the comparisons could miss
// (one undone before the end) is a reported race instead.
func TestFlowsNeverWriteSharedDesigns(t *testing.T) {
	plan, err := faultinject.ParsePlan("seed=3,synth=0.3,floorplan=0.2,impl=0.3,bitgen=0.2,drc=0.2")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		flow     string
		strategy string
		faults   *faultinject.Plan
	}
	var runs []run
	for _, faults := range []*faultinject.Plan{nil, plan} {
		for _, fl := range flow.FlowNames() {
			runs = append(runs, run{fl, "", faults})
		}
		for _, s := range []string{"serial", "semi", "fully"} {
			runs = append(runs, run{"presp", s, faults})
		}
	}
	for _, name := range experiments.PresetNames() {
		d, err := experiments.PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		before := deepCopy(reflect.ValueOf(d), map[ptrKey]reflect.Value{}).Interface().(*socgen.Design)
		cache, stage := vivado.NewCheckpointCache(), vivado.NewStageCache()
		var wg sync.WaitGroup
		errs := make([]error, 2*len(runs))
		for i := range errs {
			r := runs[i%len(runs)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				opt := flow.Options{Workers: 2, Compress: i%2 == 0, Cache: cache, StageCache: stage,
					FaultPlan: r.faults, ErrorPolicy: flow.Collect}
				if r.strategy != "" {
					kind, err := core.ParseStrategyKind(r.strategy)
					if err != nil {
						errs[i] = err
						return
					}
					if opt.Strategy, err = core.ForceStrategy(d, kind, 2); err != nil {
						return // the degree does not fit this preset
					}
				}
				_, err := flow.RunFlow(context.Background(), r.flow, d, opt)
				if err != nil && (r.faults == nil || !isFault(err)) {
					errs[i] = fmt.Errorf("%s/%s: %w", r.flow, r.strategy, err)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !reflect.DeepEqual(before, d) {
			t.Fatalf("%s: a flow run wrote the shared design", name)
		}
		top := flow.MemoStaticTop(d)
		if top == nil {
			t.Fatalf("%s: no run memoised the shared design's static top", name)
		}
		if !reflect.DeepEqual(top, flow.BuildStaticTop(before)) {
			t.Fatalf("%s: a flow run wrote the memoised static top", name)
		}
		checkServedCheckpoints(t, name, d, cache)
	}
}

// checkServedCheckpoints fails when a checkpoint cache entry of shared
// design d no longer deep-equals a fresh synthesis of its module on a
// tool with no cache: the static top under "synth/static" and every
// partition's content under "synth/<rp>". Each entry must be present.
func checkServedCheckpoints(t *testing.T, name string, d *socgen.Design, cache *vivado.CheckpointCache) {
	t.Helper()
	keys, _, err := flow.StageKeyMap(d, "presp", flow.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	served, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	served.SetCache(cache)
	plain, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(id string, m *rtl.Module, ooc bool) {
		t.Helper()
		hits, _ := served.CacheStats()
		got, err := served.Synthesize(context.Background(), keys[id], m, ooc)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, id, err)
		}
		if now, _ := served.CacheStats(); now != hits+1 {
			t.Fatalf("%s: the checkpoint cache holds nothing under %s", name, id)
		}
		want, err := plain.Synthesize(context.Background(), "", m, ooc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a flow run wrote the checkpoint served under %s:\nserved: %+v\nfresh:  %+v", name, id, got, want)
		}
	}
	check("synth/static", flow.BuildStaticTop(d), false)
	for _, rp := range d.RPs {
		check("synth/"+rp.Name, rp.Content, true)
	}
}

// TestFaultPlanOnSharedDesign: a fault-plan run on the frozen shared
// SOC_2 reads the memoised keys for synthesis only. Over caches a
// fault-free run warmed, it settles nothing and counts no stage miss —
// a skip would bypass an injected fault — and it equals the same run
// on a fresh design, job statistics included.
func TestFaultPlanOnSharedDesign(t *testing.T) {
	shared, fresh := presetPair(t, "SOC_2")
	plan, err := faultinject.ParsePlan("seed=7,synth=0.5,impl=0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *socgen.Design) *flow.Result {
		t.Helper()
		opt := flow.Options{Compress: true, Cache: vivado.NewCheckpointCache(), StageCache: vivado.NewStageCache()}
		if _, err := flow.RunPRESP(context.Background(), d, opt); err != nil {
			t.Fatal(err)
		}
		opt.FaultPlan, opt.ErrorPolicy = plan, flow.Collect
		res, err := flow.RunPRESP(context.Background(), d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(shared), run(fresh)
	if len(got.JobErrors) == 0 {
		t.Fatal("the plan injected no fault, so the test shows nothing")
	}
	if got.Jobs.Skipped != 0 || got.Jobs.StageCacheMisses != 0 {
		t.Fatalf("fault-plan run used the stage cache: %+v", got.Jobs)
	}
	if g, w := flow.ResultSignature(got), flow.ResultSignature(want); g != w {
		t.Fatalf("shared-design run diverged from a fresh design's:\n--- shared ---\n%s\n--- fresh ---\n%s", g, w)
	}
	if !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Fatalf("job statistics differ:\nshared: %+v\nfresh:  %+v", got.Jobs, want.Jobs)
	}
}

// TestWarmCacheEquivalence: cold, checkpoint-warm and stage-warm runs
// are observationally identical, over every preset. The cold run is on
// a fresh design; the warm runs are on the preset's frozen shared
// design. Two checkpoint-warm runs cover both cache shapes that read
// the memoised synthesis keys: one with a stage cache and one with the
// checkpoint cache alone. The stage-warm run settling every keyed job
// also proves the memoised keys are the cold run's.
func TestWarmCacheEquivalence(t *testing.T) {
	for _, name := range experiments.PresetNames() {
		t.Run(name, func(t *testing.T) {
			shared, fresh := presetPair(t, name)
			cache, stage := vivado.NewCheckpointCache(), vivado.NewStageCache()
			run := func(d *socgen.Design, stage *vivado.StageCache) *flow.Result {
				t.Helper()
				res, err := flow.RunPRESP(context.Background(), d, flow.Options{Compress: true, Cache: cache, StageCache: stage})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cold := run(fresh, stage)
			// Checkpoint-warm, keyed: every synthesis hits, every keyed
			// stage misses an empty stage cache and runs.
			ckWarm := run(shared, vivado.NewStageCache())
			// Checkpoint-only: no stage cache, and every synthesis still
			// hits under its memoised key.
			ckOnly := run(shared, nil)
			// Stage-warm: every keyed stage settles from the cold run's
			// artifacts.
			stWarm := run(shared, stage)

			want := flow.ResultSignature(cold)
			for _, warm := range []struct {
				name string
				res  *flow.Result
			}{{"checkpoint-warm", ckWarm}, {"checkpoint-only", ckOnly}, {"stage-warm", stWarm}} {
				if got := flow.ResultSignature(warm.res); got != want {
					t.Fatalf("%s run diverged from cold run:\n--- cold ---\n%s\n--- %s ---\n%s", warm.name, want, warm.name, got)
				}
			}
			// A cold run misses once for the static top and once per
			// distinct partition content, and hits only on partitions
			// repeating a content.
			contents := map[string]bool{}
			for _, rp := range fresh.RPs {
				contents[rp.Content.Name] = true
			}
			misses := 1 + len(contents)
			if cold.Jobs.CacheMisses != misses || cold.Jobs.CacheHits != cold.Jobs.SynthJobs-misses || cold.Jobs.Skipped != 0 {
				t.Fatalf("cold run miscounted cache traffic, want %d misses: %+v", misses, cold.Jobs)
			}
			for _, warm := range []struct {
				name string
				res  *flow.Result
			}{{"checkpoint-warm", ckWarm}, {"checkpoint-only", ckOnly}} {
				if j := warm.res.Jobs; j.CacheHits != j.SynthJobs || j.CacheMisses != 0 || j.Skipped != 0 {
					t.Fatalf("%s run did not hit the checkpoint cache alone: %+v", warm.name, j)
				}
			}
			if stWarm.Jobs.Skipped == 0 || stWarm.Jobs.StageCacheMisses != 0 || stWarm.Jobs.CacheMisses != 0 {
				t.Fatalf("stage-warm run did not settle every keyed stage: %+v", stWarm.Jobs)
			}
		})
	}
}

// shape is one spec shape the flow service admits.
type shape struct {
	flow, strategy string
	tau            int
	compress       bool
}

// admittedOptions resolves a spec shape to the flow options the service
// runs it with on d, as its admission does: a named strategy is forced
// at τ (the default degree when 0), and a bare τ steers the chooser. It
// reports false for a shape the service rejects.
func admittedOptions(d *socgen.Design, sh shape) (flow.Options, bool) {
	opt := flow.Options{SemiTau: sh.tau, Compress: sh.compress, StageCache: vivado.NewStageCache()}
	if sh.strategy != "" {
		kind, err := core.ParseStrategyKind(sh.strategy)
		if err != nil {
			return opt, false
		}
		tau := sh.tau
		if tau == 0 {
			tau = core.DefaultSemiTau
		}
		if opt.Strategy, err = core.ForceStrategy(d, kind, tau); err != nil {
			return opt, false
		}
	} else if sh.flow == "presp" && sh.tau != 0 {
		if _, err := core.ChooseWithTau(d, sh.tau); err != nil {
			return opt, false
		}
	}
	return opt, true
}

// TestMemoMatchesDerivedKeys is the differential leg of the memo: for
// every preset and every spec shape the flow service admits (flow ×
// strategy × τ × compression), the key map a run of the shared design
// gets from the memo equals, key for key, the map derived afresh for a
// fresh elaboration — and a second run gets the very same memoised map.
// The memoised design digest equals the fresh design's too.
func TestMemoMatchesDerivedKeys(t *testing.T) {
	for _, name := range experiments.PresetNames() {
		shared, fresh := presetPair(t, name)
		if got, want := flow.DesignDigest(shared), flow.DesignDigest(fresh); got != want {
			t.Fatalf("%s: memoised design digest %s, derived %s", name, got, want)
		}
		keyed := 0
		for _, fl := range flow.FlowNames() {
			for _, strategy := range []string{"", "serial", "semi", "fully"} {
				for tau := 0; tau <= len(shared.RPs); tau++ {
					for _, compress := range []bool{false, true} {
						sh := shape{fl, strategy, tau, compress}
						sharedOpt, ok := admittedOptions(shared, sh)
						if !ok {
							continue
						}
						freshOpt, _ := admittedOptions(fresh, sh)
						got, memoised, err := flow.StageKeyMap(shared, fl, sharedOpt)
						if err != nil {
							t.Fatalf("%s %+v: %v", name, sh, err)
						}
						want, freshMemoised, err := flow.StageKeyMap(fresh, fl, freshOpt)
						if err != nil {
							t.Fatalf("%s %+v: %v", name, sh, err)
						}
						if freshMemoised {
							t.Fatalf("%s %+v: an unfrozen design was served from a memo", name, sh)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %+v: memoised keys differ from derived ones:\nmemo:    %v\nderived: %v", name, sh, got, want)
						}
						if want == nil {
							continue // the monolithic flow is not keyed
						}
						if !memoised {
							t.Fatalf("%s %+v: a keyed run of the shared design bypassed the memo", name, sh)
						}
						again, _, err := flow.StageKeyMap(shared, fl, sharedOpt)
						if err != nil {
							t.Fatal(err)
						}
						if reflect.ValueOf(again).UnsafePointer() != reflect.ValueOf(got).UnsafePointer() {
							t.Fatalf("%s %+v: a second run derived its keys again", name, sh)
						}
						keyed++
					}
				}
			}
		}
		if keyed == 0 {
			t.Fatalf("%s: no admitted shape was keyed", name)
		}
	}
}

// TestMemoBypassedOffDefaults: a run the memo cannot serve exactly takes
// the derived path even on a shared design. A cost model that compares
// equal to the default field by field but holds a −0 marshals to
// different key bytes, so the memo is keyed on the model being nil, not
// on its value. A fault plan changes no key, so its run reads the very
// memoised map (and keys only its synthesis; see
// TestFaultPlanOnSharedDesign).
func TestMemoBypassedOffDefaults(t *testing.T) {
	shared, fresh := presetPair(t, "SOC_2")
	base := flow.Options{Compress: true, StageCache: vivado.NewStageCache()}
	memoKeys, memoised, err := flow.StageKeyMap(shared, "presp", base)
	if err != nil || !memoised {
		t.Fatalf("default run: memoised=%v err=%v", memoised, err)
	}

	model := vivado.DefaultCostModel()
	model.StitchPerRP = math.Copysign(0, -1)
	if *model != *vivado.DefaultCostModel() {
		t.Fatal("a −0 field should compare equal to the default model")
	}
	opt := base
	opt.Model = model
	got, memoised, err := flow.StageKeyMap(shared, "presp", opt)
	if err != nil || memoised {
		t.Fatalf("custom model: memoised=%v err=%v", memoised, err)
	}
	want, _, err := flow.StageKeyMap(fresh, "presp", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("custom model: shared-design keys differ from a fresh derivation:\n%v\n%v", got, want)
	}
	if got["floorplan"] == memoKeys["floorplan"] {
		t.Fatal("custom model: the −0 model kept the default model's floorplan key")
	}

	plan, err := faultinject.ParsePlan("seed=1,synth=0.5")
	if err != nil {
		t.Fatal(err)
	}
	opt = base
	opt.FaultPlan = plan
	got, memoised, err = flow.StageKeyMap(shared, "presp", opt)
	if err != nil || !memoised || reflect.ValueOf(got).UnsafePointer() != reflect.ValueOf(memoKeys).UnsafePointer() {
		t.Fatalf("fault plan: memoised=%v err=%v, want the default run's memoised keys", memoised, err)
	}
}

// ptrKey identifies a pointer by type as well as address: a struct and
// its first field share an address.
type ptrKey struct {
	t reflect.Type
	p uintptr
}

// deepCopy copies v and everything it reaches, keeping pointer aliasing
// (a module instantiated twice stays one module in the copy). The
// design types hold only plain data — exported fields of any kind the
// switch covers, unexported ones of scalar kinds (copied as they are) —
// so anything else is a test bug.
func deepCopy(v reflect.Value, seen map[ptrKey]reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		k := ptrKey{v.Type(), v.Pointer()}
		if c, ok := seen[k]; ok {
			return c
		}
		c := reflect.New(v.Type().Elem())
		seen[k] = c
		c.Elem().Set(deepCopy(v.Elem(), seen))
		return c
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i), seen))
		}
		return c
	case reflect.Map:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), deepCopy(it.Value(), seen))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		c.Set(v) // unexported scalars keep their values
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				if !scalar(f.Type.Kind()) {
					panic(fmt.Sprintf("deepCopy: unexported field %s.%s of kind %s", v.Type(), f.Name, f.Type.Kind()))
				}
				continue
			}
			c.Field(i).Set(deepCopy(v.Field(i), seen))
		}
		return c
	case reflect.Array:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i), seen))
		}
		return c
	}
	if scalar(v.Kind()) {
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		return c
	}
	panic(fmt.Sprintf("deepCopy: unsupported kind %s (%s)", v.Kind(), v.Type()))
}

// scalar reports whether values of kind k hold no references.
func scalar(k reflect.Kind) bool {
	switch k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		return true
	}
	return false
}

func isFault(err error) bool {
	_, ok := faultinject.As(err)
	return ok
}
