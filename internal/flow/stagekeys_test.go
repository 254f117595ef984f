package flow

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"presp/internal/core"
	"presp/internal/rtl"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

func TestDesignDigestDistinguishesDesigns(t *testing.T) {
	d1 := elaborate(t, socgen.SOC1())
	d2 := elaborate(t, socgen.SOC2())
	if DesignDigest(d1) != DesignDigest(elaborate(t, socgen.SOC1())) {
		t.Fatal("digest is not deterministic for the same design")
	}
	if DesignDigest(d1) == DesignDigest(d2) {
		t.Fatal("different designs share a digest")
	}
}

// TestContentAddressesPinned pins the exact hex of SOC_2's content
// addresses: the design digest, the synthesis-checkpoint keys and every
// stage-artifact key. Persisted cache entries are named by these keys,
// so any change to the hashing or its framing would silently orphan
// every existing -cache-dir and <state-dir>/cache entry.
func TestContentAddressesPinned(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := chooseStrategy(d, Options{}, modePRESP)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildStageKeys(d, nil, BuildStaticTop(d), tool, strat, Options{Compress: true, StageCache: vivado.NewStageCache()}, modePRESP)
	if sk == nil {
		t.Fatal("SOC_2 run is not keyable")
	}
	keys := map[string]string{
		"design":       DesignDigest(d),
		"synth/static": tool.CheckpointKey(BuildStaticTop(d), false),
		"floorplan":    sk.keys["floorplan"],
		"scripts":      sk.keys["scripts"],
		"impl/static":  sk.keys["impl/static"],
		"bitgen/full":  sk.keys["bitgen/full"],
	}
	for _, rp := range d.RPs {
		keys["synth/"+rp.Name] = tool.CheckpointKey(rp.Content, true)
		keys["bitgen/"+rp.Name] = sk.keys["bitgen/"+rp.Name]
	}
	for gi := range strat.Groups {
		keys[fmt.Sprintf("impl/group/%d", gi)] = sk.keys[groupJobID(gi)]
	}
	serial, err := core.ForceStrategy(d, core.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys["impl/serial"] = buildStageKeys(d, nil, BuildStaticTop(d), tool, serial, Options{StageCache: vivado.NewStageCache()}, modeStandardDFX).keys["impl/serial"]
	var lines []string
	for name, k := range keys {
		lines = append(lines, name+"="+k)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n")
	const want = `bitgen/full=1793a10c47f9a93f
bitgen/rt_1_rp=13ab389c5d1f4317
bitgen/rt_2_rp=b125117e2a489877
bitgen/rt_3_rp=12991690abc62409
bitgen/rt_4_rp=8ebdf4d421ffea4b
design=4346a796eea727e8
floorplan=d05af0be14f6b6b3
impl/group/0=5d57a69dad129f8c
impl/group/1=0ad6d20e3cf31759
impl/group/2=b8fe859ddd931304
impl/group/3=44fc57e3c50a24d6
impl/serial=cbde4a9d0bfe80e9
impl/static=fe92d24fc0603c40
scripts=52cbf18a1d3db660
synth/rt_1_rp=71a6480d3bc0e5ac
synth/rt_2_rp=66775138cbf8e50f
synth/rt_3_rp=40e772abf893ca0a
synth/rt_4_rp=2eb4845c80a7d85e
synth/static=f7e2dd98a368f8bf`
	if got != want {
		t.Fatalf("SOC_2 content addresses moved:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestStageKeysCarryCheckpointKeys: the synthesis keys a keyed run hands
// to Tool.Synthesize are exactly Tool.CheckpointKey's, so the flow's
// derivation addresses the very checkpoint-cache entries persisted
// under them.
func TestStageKeysCarryCheckpointKeys(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := chooseStrategy(d, Options{}, modePRESP)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildStageKeys(d, nil, BuildStaticTop(d), tool, strat, Options{StageCache: vivado.NewStageCache()}, modePRESP)
	if got, want := sk.key("synth/static"), tool.CheckpointKey(BuildStaticTop(d), false); got != want {
		t.Fatalf("synth/static key %q, want %q", got, want)
	}
	for _, rp := range d.RPs {
		if got, want := sk.key("synth/"+rp.Name), tool.CheckpointKey(rp.Content, true); got != want {
			t.Fatalf("synth/%s key %q, want %q", rp.Name, got, want)
		}
	}
}

// TestUnfrozenDesignKeysFollowEdits: a design that is not frozen is
// never memoised, so a kernel edited in place between two runs re-keys
// exactly its synthesis, the implementation run that consumes it and
// its partial bitstream.
func TestUnfrozenDesignKeysFollowEdits(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	opt := Options{Strategy: forceFully(t, d), StageCache: vivado.NewStageCache()}
	if memoFor(d, opt) != nil {
		t.Fatal("an unfrozen design got a memo")
	}
	keysOf := func() map[string]string {
		t.Helper()
		tool, err := vivado.New(d.Dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := memoFor(d, opt)
		return buildStageKeys(d, m, m.staticTopOf(d), tool, opt.Strategy, opt, modePRESP).keys
	}
	before := keysOf()
	edited := editKernel(t, d, 1)
	after := keysOf()
	var changed []string
	for id, k := range after {
		if before[id] != k {
			changed = append(changed, id)
		}
	}
	sort.Strings(changed)
	gi := -1
	for i, group := range opt.Strategy.Groups {
		if len(group) == 1 && group[0] == edited {
			gi = i
		}
	}
	want := []string{"bitgen/" + edited, groupJobID(gi), "synth/" + edited}
	sort.Strings(want)
	if len(before) != len(after) || !reflect.DeepEqual(changed, want) {
		t.Fatalf("editing %s changed keys %v, want %v", edited, changed, want)
	}
}

// TestMemoConcurrentFirstUse: runs that reach a frozen design together,
// before any of them created its memo, all get one static top and one
// key map per signature, equal to a fresh design's derivation.
func TestMemoConcurrentFirstUse(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	d.Freeze()
	fresh := elaborate(t, socgen.SOC2())
	opt := Options{Compress: true, StageCache: vivado.NewStageCache()}
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := chooseStrategy(d, opt, modePRESP)
	if err != nil {
		t.Fatal(err)
	}
	want := buildStageKeys(fresh, nil, BuildStaticTop(fresh), tool, strat, opt, modePRESP).keys
	const runs = 8
	keys := make([]map[string]string, runs)
	tops := make([]*rtl.Module, runs)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := memoFor(d, opt)
			tops[i] = m.staticTopOf(d)
			keys[i] = buildStageKeys(d, m, tops[i], tool, strat, opt, modePRESP).keys
		}()
	}
	wg.Wait()
	for i := range keys {
		if tops[i] != tops[0] || reflect.ValueOf(keys[i]).UnsafePointer() != reflect.ValueOf(keys[0]).UnsafePointer() {
			t.Fatalf("run %d got its own static top or key map", i)
		}
	}
	if !reflect.DeepEqual(keys[0], want) {
		t.Fatalf("memoised keys differ from a fresh derivation:\nmemo:    %v\nderived: %v", keys[0], want)
	}
}
