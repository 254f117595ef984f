package experiments

import (
	"fmt"
	"strings"

	"presp/internal/reconfig"
	"presp/internal/report"
	"presp/internal/wami"
)

// Table6Tile is one reconfigurable tile's allocation and bitstream size.
type Table6Tile struct {
	// Tile is the tile name (rt_1 ...).
	Tile string
	// Accs lists the hosted accelerator indices.
	Accs []int
	// PbsKB is the compressed partial bitstream size per accelerator in
	// binary kilobytes (all accelerators of a tile share the partition,
	// so sizes are close; the reported value is the largest, matching
	// the tile's worst-case reconfiguration).
	PbsKB float64
}

// Table6SoC is one runtime SoC's partitioning.
type Table6SoC struct {
	Name  string
	Tiles []Table6Tile
}

// TotalKB sums the per-tile bitstream sizes (one per tile), the storage
// footprint Table VI reports.
func (s *Table6SoC) TotalKB() float64 {
	var sum float64
	for _, t := range s.Tiles {
		sum += t.PbsKB
	}
	return sum
}

// Table6Result reproduces the accelerator partitioning and partial
// bitstream sizes (Table VI).
type Table6Result struct {
	SoCs []Table6SoC
}

// Table6 boots the three runtime SoCs, with a compressed partial
// bitstream for every (tile, accelerator) pair, and reports each
// tile's largest image.
func Table6() (*Table6Result, error) {
	reg, err := registry()
	if err != nil {
		return nil, err
	}
	res := &Table6Result{}
	for _, name := range wami.RuntimeSoCNames() {
		cfg, alloc, err := wami.RuntimeSoC(name)
		if err != nil {
			return nil, err
		}
		_, bss, err := wami.Boot(cfg, alloc, reg, nil, reconfig.DefaultConfig(), true)
		if err != nil {
			return nil, err
		}
		soc := Table6SoC{Name: name}
		for _, tileName := range report.SortedKeys(alloc) {
			row := Table6Tile{Tile: tileName, Accs: alloc[tileName]}
			for _, bs := range bss[tileName] {
				if kb := bs.SizeKB(); kb > row.PbsKB {
					row.PbsKB = kb
				}
			}
			soc.Tiles = append(soc.Tiles, row)
		}
		res.SoCs = append(res.SoCs, soc)
	}
	return res, nil
}

// SoC returns the named SoC's partitioning.
func (r *Table6Result) SoC(name string) (*Table6SoC, error) {
	for i := range r.SoCs {
		if r.SoCs[i].Name == name {
			return &r.SoCs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: Table VI has no SoC %q", name)
}

// Render builds the Table VI layout.
func (r *Table6Result) Render() *report.Table {
	t := report.New("Table VI — accelerator partitioning and partial bitstream sizes",
		"SoC", "tile", "WAMI accs", "pbs (KB)")
	for _, s := range r.SoCs {
		for _, tile := range s.Tiles {
			idx := make([]string, len(tile.Accs))
			for i, a := range tile.Accs {
				idx[i] = fmt.Sprintf("%d", a)
			}
			t.AddRow(s.Name, tile.Tile, "{"+strings.Join(idx, ", ")+"}", fmt.Sprintf("%.0f", tile.PbsKB))
		}
	}
	return t
}
