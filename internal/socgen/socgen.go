// Package socgen builds SoC instances from tile-grid configurations, the
// role the ESP SoC generator plays in the real flow: it validates the
// configuration, elaborates the RTL hierarchy of every tile, and splits
// the design into its static part and its reconfigurable partitions —
// the separation the PR-ESP FPGA flow starts from (Fig 1).
package socgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"presp/internal/accel"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/rtl"
	"presp/internal/tile"
)

// Config describes one SoC: the board, the tile grid and the clock.
type Config struct {
	// Name identifies the SoC (e.g. "SOC_2", "SoC_Y").
	Name string `json:"name"`
	// Board selects the target FPGA board (VC707, VCU118, VCU128).
	Board string `json:"board"`
	// Cols, Rows give the tile grid dimensions.
	Cols int `json:"cols"`
	Rows int `json:"rows"`
	// FreqHz is the SoC fabric clock; the paper's systems run at 78 MHz.
	FreqHz float64 `json:"freq_hz"`
	// Tiles lists the populated grid slots.
	Tiles []tile.Tile `json:"tiles"`
}

// Validate checks structural invariants of the configuration.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("socgen: config has no name")
	}
	if c.Cols <= 0 || c.Rows <= 0 {
		return fmt.Errorf("socgen: %s: invalid grid %dx%d", c.Name, c.Cols, c.Rows)
	}
	if len(c.Tiles) == 0 {
		return fmt.Errorf("socgen: %s: no tiles", c.Name)
	}
	if len(c.Tiles) > c.Cols*c.Rows {
		return fmt.Errorf("socgen: %s: %d tiles exceed %dx%d grid", c.Name, len(c.Tiles), c.Cols, c.Rows)
	}
	if _, err := fpga.ByBoard(c.Board); err != nil {
		return err
	}
	names := make(map[string]bool, len(c.Tiles))
	slots := make(map[noc.Coord]string, len(c.Tiles))
	var cpus, mems, auxs int
	for i := range c.Tiles {
		t := &c.Tiles[i]
		if err := t.Validate(); err != nil {
			return fmt.Errorf("socgen: %s: %w", c.Name, err)
		}
		if t.Pos.X < 0 || t.Pos.X >= c.Cols || t.Pos.Y < 0 || t.Pos.Y >= c.Rows {
			return fmt.Errorf("socgen: %s: tile %s at %s outside %dx%d grid", c.Name, t.Name, t.Pos, c.Cols, c.Rows)
		}
		if names[t.Name] {
			return fmt.Errorf("socgen: %s: duplicate tile name %q", c.Name, t.Name)
		}
		names[t.Name] = true
		if prev, taken := slots[t.Pos]; taken {
			return fmt.Errorf("socgen: %s: tiles %s and %s share slot %s", c.Name, prev, t.Name, t.Pos)
		}
		slots[t.Pos] = t.Name
		switch t.Kind {
		case tile.CPU:
			cpus++
		case tile.Mem:
			mems++
		case tile.Aux:
			auxs++
		case tile.Reconf:
			if t.ReconfCPU {
				cpus++
			}
		}
	}
	if cpus == 0 {
		return fmt.Errorf("socgen: %s: no CPU tile", c.Name)
	}
	if mems == 0 {
		return fmt.Errorf("socgen: %s: no MEM tile", c.Name)
	}
	if auxs != 1 {
		return fmt.Errorf("socgen: %s: want exactly one AUX tile, have %d", c.Name, auxs)
	}
	return nil
}

// ParseConfig decodes and validates a JSON configuration, the inverse
// of json.Marshal on a Config. It is strict: an unknown key (a misspelt
// optional field) or anything after the configuration is an error, not
// silently dropped.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&c)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the config")
	}
	if err != nil {
		return nil, fmt.Errorf("socgen: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// RP is one reconfigurable partition of an elaborated design.
type RP struct {
	// Name is the partition name (derives from the tile name).
	Name string
	// Tile is the hosting reconfigurable tile.
	Tile *tile.Tile
	// Content is the initial reconfigurable module (wrapper + accelerator
	// or the relocated CPU); nil means the RP starts as a black box.
	Content *rtl.Module
	// Resources is the post-synthesis utilization of the largest module
	// that must fit the partition.
	Resources fpga.Resources
}

// Design is an elaborated SoC: the full RTL hierarchy plus the
// static/reconfigurable split the flow consumes.
type Design struct {
	// Cfg is the source configuration.
	Cfg *Config
	// Dev is the target device model.
	Dev *fpga.Device
	// Top is the full-SoC RTL hierarchy.
	Top *rtl.Module
	// StaticModules are the per-tile modules of the static part
	// (including each tile's NoC router).
	StaticModules []*rtl.Module
	// RPs are the reconfigurable partitions in tile order.
	RPs []*RP
	// StaticResources is the total utilization of the static part.
	StaticResources fpga.Resources

	// frozen marks a design shared read-only (see Freeze).
	frozen bool
}

// Freeze marks d read-only for the rest of the process: no caller will
// write it again, so a consumer may derive values from its content once
// and keep them for as long as d lives. Call it before d is shared —
// the flag is plain data, published by whatever publishes d.
func (d *Design) Freeze() { d.frozen = true }

// Frozen reports whether d was marked read-only by Freeze.
func (d *Design) Frozen() bool { return d.frozen }

// Elaborate builds the Design for config c, resolving accelerator names
// against reg. Reconfigurable tiles receive the PR-ESP wrapper interface;
// native accelerator tiles keep the (non-DFX-compliant) ESP socket.
func Elaborate(c *Config, reg *accel.Registry) (*Design, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	dev, err := fpga.ByBoard(c.Board)
	if err != nil {
		return nil, err
	}
	d := &Design{Cfg: c, Dev: dev}
	d.Top = &rtl.Module{Name: c.Name + "_top"}
	d.Top.AddPort("clk", rtl.In, 1, rtl.ClockPort)
	d.Top.AddPort("rstn", rtl.In, 1, rtl.ResetPort)

	for i := range c.Tiles {
		t := &c.Tiles[i]
		var mod *rtl.Module
		switch t.Kind {
		case tile.CPU:
			mod = tile.CPUModule(t.Name, t.Core)
		case tile.Mem:
			mod = tile.MemModule(t.Name)
		case tile.Aux:
			mod = tile.AuxModule(t.Name, dev.Family)
		case tile.SLM:
			mod = tile.SLMModule(t.Name)
		case tile.Accel:
			desc, err := reg.Lookup(t.AccelName)
			if err != nil {
				return nil, fmt.Errorf("socgen: %s: tile %s: %w", c.Name, t.Name, err)
			}
			mod = tile.NativeAccelModule(t.Name, desc.Resources)
		case tile.Reconf:
			rp, err := elaborateRP(t, reg)
			if err != nil {
				return nil, fmt.Errorf("socgen: %s: %w", c.Name, err)
			}
			d.RPs = append(d.RPs, rp)
			mod = tile.ReconfModule(t.Name, rp.Content)
		default:
			return nil, fmt.Errorf("socgen: %s: tile %s has unsupported kind %s", c.Name, t.Name, t.Kind)
		}
		// Every populated tile instantiates its NoC router.
		router := &rtl.Module{Name: t.Name + "_router", Cost: tile.RouterCost()}
		mod.AddChild("router0", router)
		d.Top.AddChild(t.Name, mod)
		if t.Kind.Static() {
			d.StaticModules = append(d.StaticModules, mod)
			d.StaticResources = d.StaticResources.Add(mod.TotalCost())
		}
	}
	sort.Slice(d.RPs, func(i, j int) bool { return d.RPs[i].Name < d.RPs[j].Name })
	return d, nil
}

func elaborateRP(t *tile.Tile, reg *accel.Registry) (*RP, error) {
	rp := &RP{Name: t.Name + "_rp", Tile: t}
	if t.ReconfCPU {
		// The CPU tile content is relocated into the reconfigurable
		// partition to shrink the static region (SOC_4 / SoC_D).
		rp.Content = tile.WrapperModule(t.Name+"_cpu", tile.CPUTileCost(t.Core))
		rp.Resources = tile.CPUTileCost(t.Core)
		return rp, nil
	}
	desc, err := reg.Lookup(t.AccelName)
	if err != nil {
		return nil, fmt.Errorf("tile %s: %w", t.Name, err)
	}
	rp.Content = tile.WrapperModule(desc.Name, desc.Resources)
	rp.Resources = desc.Resources
	return rp, nil
}

// ReconfigurableResources sums the utilization of all RP contents, the
// numerator of the paper's γ metric.
func (d *Design) ReconfigurableResources() fpga.Resources {
	var sum fpga.Resources
	for _, rp := range d.RPs {
		sum = sum.Add(rp.Resources)
	}
	return sum
}

// TileAt returns the tile occupying mesh coordinate c, or nil.
func (d *Design) TileAt(c noc.Coord) *tile.Tile {
	for i := range d.Cfg.Tiles {
		if d.Cfg.Tiles[i].Pos == c {
			return &d.Cfg.Tiles[i]
		}
	}
	return nil
}

// TileByName returns the named tile, or an error.
func (d *Design) TileByName(name string) (*tile.Tile, error) {
	for i := range d.Cfg.Tiles {
		if d.Cfg.Tiles[i].Name == name {
			return &d.Cfg.Tiles[i], nil
		}
	}
	return nil, fmt.Errorf("socgen: %s: no tile named %q", d.Cfg.Name, name)
}

// FindRP returns the reconfigurable partition hosted by the named tile.
func (d *Design) FindRP(tileName string) (*RP, error) {
	for _, rp := range d.RPs {
		if rp.Tile.Name == tileName {
			return rp, nil
		}
	}
	return nil, fmt.Errorf("socgen: %s: tile %q hosts no reconfigurable partition", d.Cfg.Name, tileName)
}
