package experiments

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"presp/internal/core"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/vivado"
)

// TestPresetDesignShared: PresetDesign hands every caller the same
// design, equal to a fresh elaboration, while ElaborateConfig keeps
// returning a new one.
func TestPresetDesignShared(t *testing.T) {
	for _, name := range PresetNames() {
		d1, err := PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: PresetDesign returned two designs", name)
		}
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ElaborateConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == d1 {
			t.Fatalf("%s: ElaborateConfig returned the shared design", name)
		}
		if !reflect.DeepEqual(fresh, d1) {
			t.Fatalf("%s: shared design differs from a fresh elaboration", name)
		}
	}
	if _, err := PresetDesign("SOC_9"); err == nil || err.Error() != `experiments: unknown preset "SOC_9"` {
		t.Fatalf("unknown preset: err = %v", err)
	}
}

// TestFlowsNeverWriteSharedDesigns is the proof that sharing one design
// per preset is safe: for every preset, every flow and strategy runs
// concurrently on the shared design, with and without a fault plan and
// through shared checkpoint and stage caches (so keyed, hit and
// single-flight paths all run), and the design must still deep-equal
// the copy taken before. Under -race a write that the comparison could
// miss (one undone before the end) is a reported race instead.
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
	for _, name := range PresetNames() {
		d, err := PresetDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		before := deepCopy(reflect.ValueOf(d), map[ptrKey]reflect.Value{}).Interface()
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
// design types hold only exported, plain data, so any other kind is a
// test bug.
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
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				panic(fmt.Sprintf("deepCopy: unexported field %s.%s", v.Type(), v.Type().Field(i).Name))
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
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		return c
	}
	panic(fmt.Sprintf("deepCopy: unsupported kind %s (%s)", v.Kind(), v.Type()))
}

func isFault(err error) bool {
	_, ok := faultinject.As(err)
	return ok
}
