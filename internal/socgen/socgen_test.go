package socgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"presp/internal/accel"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/rtl"
	"presp/internal/tile"
)

// fullRegistry returns the characterization accelerator library (the
// WAMI kernels live in a package that depends on this one, so their
// SoCs are covered by the wami and experiments test suites instead).
func fullRegistry(t *testing.T) *accel.Registry {
	t.Helper()
	return accel.Default()
}

func validConfig() *Config {
	return &Config{
		Name: "t", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
		},
	}
}

func TestValidateAcceptsGoodConfig(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*Config)
	}{
		{"no name", func(c *Config) { c.Name = "" }},
		{"zero grid", func(c *Config) { c.Cols = 0 }},
		{"bad board", func(c *Config) { c.Board = "ZCU102" }},
		{"no tiles", func(c *Config) { c.Tiles = nil }},
		{"too many tiles", func(c *Config) { c.Cols, c.Rows = 1, 1 }},
		{"duplicate name", func(c *Config) { c.Tiles[1].Name = "cpu0" }},
		{"shared slot", func(c *Config) { c.Tiles[1].Pos = c.Tiles[0].Pos }},
		{"outside grid", func(c *Config) { c.Tiles[3].Pos = noc.Coord{X: 5, Y: 5} }},
		{"no CPU", func(c *Config) { c.Tiles[0].Kind = tile.SLM }},
		{"no MEM", func(c *Config) { c.Tiles[1].Kind = tile.SLM }},
		{"no AUX", func(c *Config) { c.Tiles[2].Kind = tile.SLM }},
		{"two AUX", func(c *Config) { c.Tiles[1] = tile.Tile{Name: "aux1", Kind: tile.Aux, Pos: noc.Coord{X: 1, Y: 0}} }},
	}
	for _, c := range cases {
		cfg := validConfig()
		c.mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.label)
		}
	}
}

func TestReconfCPUSatisfiesCPURequirement(t *testing.T) {
	cfg := validConfig()
	cfg.Tiles[0] = tile.Tile{Name: "rt_cpu", Kind: tile.Reconf, ReconfCPU: true, Pos: noc.Coord{X: 0, Y: 0}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("reconfigurable CPU not counted: %v", err)
	}
}

func TestJSONRoundtrip(t *testing.T) {
	cfg := SOC2()
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != cfg.Name || len(back.Tiles) != len(cfg.Tiles) {
		t.Fatalf("roundtrip lost data: %+v", back)
	}
	for i := range cfg.Tiles {
		if back.Tiles[i] != cfg.Tiles[i] {
			t.Fatalf("tile %d changed: %+v vs %+v", i, back.Tiles[i], cfg.Tiles[i])
		}
	}
}

func TestParseConfigRejectsGarbage(t *testing.T) {
	if _, err := ParseConfig([]byte("{not json")); err == nil {
		t.Fatal("garbage parsed")
	}
	if _, err := ParseConfig([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("invalid config parsed")
	}
}

// TestParseConfigStrict: the committed example parses, while the same
// file with an unknown key, or with anything after the configuration,
// is rejected instead of silently dropping the extra input.
func TestParseConfigStrict(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "configs", "dual_fft_gemm.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseConfig(data); err != nil {
		t.Fatalf("example config rejected: %v", err)
	}
	if _, err := ParseConfig(append(data, "\n\t "...)); err != nil {
		t.Fatalf("example config with trailing whitespace rejected: %v", err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["bogus_key"] = 1
	bogus, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{
		"unknown key":   bogus,
		"second value":  append(append([]byte(nil), data...), `{"name":"x"}`...),
		"trailing junk": append(append([]byte(nil), data...), "trailing garbage"...),
	} {
		if _, err := ParseConfig(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzParseConfig: any input parses or is rejected without a panic,
// and an accepted configuration marshals and parses back to an equal
// value.
func FuzzParseConfig(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("..", "..", "examples", "configs", "dual_fft_gemm.json")); err == nil {
		f.Add(data)
	}
	for _, c := range []*Config{validConfig(), SOC2()} {
		data, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x"} {}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		back, err := ParseConfig(again)
		if err != nil {
			t.Fatalf("marshalled config %s rejected: %v", again, err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, back)
		}
	})
}

func TestElaborateSplitsStaticAndReconfigurable(t *testing.T) {
	d, err := Elaborate(validConfig(), fullRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RPs) != 1 {
		t.Fatalf("partitions: got %d want 1", len(d.RPs))
	}
	if d.RPs[0].Resources[fpga.LUT] != 33690 {
		t.Fatalf("fft partition LUTs: got %d", d.RPs[0].Resources[fpga.LUT])
	}
	wantStatic := tile.CPUTileCost(tile.Leon3)[fpga.LUT] +
		tile.MemTileCost()[fpga.LUT] + tile.AuxTileCost()[fpga.LUT] +
		3*tile.RouterCost()[fpga.LUT]
	if d.StaticResources[fpga.LUT] != wantStatic {
		t.Fatalf("static LUTs: got %d want %d", d.StaticResources[fpga.LUT], wantStatic)
	}
	if d.ReconfigurableResources()[fpga.LUT] != 33690 {
		t.Fatalf("reconfigurable total: got %d", d.ReconfigurableResources()[fpga.LUT])
	}
}

func TestElaborateUnknownAccelerator(t *testing.T) {
	cfg := validConfig()
	cfg.Tiles[3].AccelName = "flux-capacitor"
	if _, err := Elaborate(cfg, fullRegistry(t)); err == nil {
		t.Fatal("unknown accelerator accepted")
	}
}

func TestElaborateReconfCPU(t *testing.T) {
	d, err := Elaborate(SOC4(), fullRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	// SOC_4 moves the CPU into the reconfigurable part: 5 partitions,
	// static = MEM + AUX (+ routers) = 39254.
	if len(d.RPs) != 5 {
		t.Fatalf("SOC_4 partitions: got %d want 5", len(d.RPs))
	}
	if d.StaticResources[fpga.LUT] != 39254 {
		t.Fatalf("SOC_4 static: got %d want 39254", d.StaticResources[fpga.LUT])
	}
	cpuRP, err := d.FindRP("rt_cpu")
	if err != nil {
		t.Fatal(err)
	}
	if cpuRP.Resources[fpga.LUT] != 41544 {
		t.Fatalf("CPU partition: got %d want 41544", cpuRP.Resources[fpga.LUT])
	}
}

// TestCharacterizationSoCsMatchPaperMetrics pins the whole resource
// model to the paper: the four characterization SoCs must land on the
// κ and γ values Table III reports.
func TestCharacterizationSoCsMatchPaperMetrics(t *testing.T) {
	reg := fullRegistry(t)
	cases := []struct {
		cfg        *Config
		kappa      float64
		gamma      float64
		partitions int
	}{
		{SOC1(), 0.271, 0.48, 16},
		{SOC2(), 0.271, 1.48, 4},
		{SOC3(), 0.271, 1.07, 3},
		{SOC4(), 0.129, 4.15, 5},
	}
	for _, c := range cases {
		d, err := Elaborate(c.cfg, reg)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		if len(d.RPs) != c.partitions {
			t.Errorf("%s: %d partitions, want %d", c.cfg.Name, len(d.RPs), c.partitions)
		}
		kappa := float64(d.StaticResources[fpga.LUT]) / float64(d.Dev.Total[fpga.LUT])
		gamma := float64(d.ReconfigurableResources()[fpga.LUT]) / float64(d.StaticResources[fpga.LUT])
		if diff := kappa - c.kappa; diff > 0.005 || diff < -0.005 {
			t.Errorf("%s: κ=%.3f want %.3f", c.cfg.Name, kappa, c.kappa)
		}
		if diff := gamma - c.gamma; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: γ=%.3f want %.3f", c.cfg.Name, gamma, c.gamma)
		}
	}
}

func TestProfiling2x2(t *testing.T) {
	cfg := Profiling2x2("gemm")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(cfg, fullRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RPs) != 1 || d.RPs[0].Resources[fpga.LUT] != 30617 {
		t.Fatalf("profiling SoC wrong: %d partitions", len(d.RPs))
	}
}

func TestTileLookups(t *testing.T) {
	d, err := Elaborate(validConfig(), fullRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TileAt(noc.Coord{X: 1, Y: 1}); got == nil || got.Name != "rt_1" {
		t.Fatal("TileAt missed rt_1")
	}
	if d.TileAt(noc.Coord{X: 5, Y: 5}) != nil {
		t.Fatal("TileAt invented a tile")
	}
	if _, err := d.TileByName("rt_1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TileByName("nope"); err == nil {
		t.Fatal("TileByName invented a tile")
	}
	if _, err := d.FindRP("cpu0"); err == nil {
		t.Fatal("FindRP matched a static tile")
	}
}

func TestTopHierarchyContainsEveryTile(t *testing.T) {
	d, err := Elaborate(validConfig(), fullRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	d.Top.Walk(func(path string, _ *rtl.Module) { seen[path] = true })
	for _, want := range []string{"t_top/cpu0", "t_top/mem0", "t_top/aux0", "t_top/rt_1"} {
		if !seen[want] {
			t.Errorf("hierarchy missing %s (have %d paths)", want, len(seen))
		}
	}
	// Every tile carries its router.
	if !seen["t_top/cpu0/router0"] {
		t.Error("CPU tile lacks its NoC router")
	}
}
