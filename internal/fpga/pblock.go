package fpga

import (
	"fmt"
	"math"
)

// Cell addresses one placement cell: a sub-column within a clock-region
// row. X runs over GridCols() (RegionCols × SubColsPerRegion), Y over
// clock-region rows.
type Cell struct {
	X, Y int
}

// String renders the cell as "CxRy".
func (c Cell) String() string { return fmt.Sprintf("C%dR%d", c.X, c.Y) }

// Region returns the clock region the cell belongs to on device d.
func (c Cell) Region(d *Device) ClockRegion {
	return ClockRegion{X: c.X / d.SubColsPerRegion, Y: c.Y}
}

// Pblock is a rectangular physical placement region for a reconfigurable
// partition. Per the 7-series DFX rules a partition spans full
// clock-region height vertically (Y coordinates are clock-region rows)
// but may claim a fraction of a region's width (X coordinates are
// sub-columns), the granularity FLORA-style floorplanners exploit.
type Pblock struct {
	// Name is the pblock name in the implementation scripts.
	Name string
	// X0, Y0 are the lower-left cell coordinates (inclusive).
	X0, Y0 int
	// X1, Y1 are the upper-right cell coordinates (inclusive).
	X1, Y1 int
}

// Width returns the pblock width in sub-columns.
func (p Pblock) Width() int { return p.X1 - p.X0 + 1 }

// Height returns the pblock height in clock-region rows.
func (p Pblock) Height() int { return p.Y1 - p.Y0 + 1 }

// CellCount returns the number of placement cells the pblock spans.
func (p Pblock) CellCount() int { return p.Width() * p.Height() }

// Overlaps reports whether two pblocks share any cell.
func (p Pblock) Overlaps(o Pblock) bool {
	return p.X0 <= o.X1 && o.X0 <= p.X1 && p.Y0 <= o.Y1 && o.Y0 <= p.Y1
}

// Contains reports whether the pblock covers cell c.
func (p Pblock) Contains(c Cell) bool {
	return c.X >= p.X0 && c.X <= p.X1 && c.Y >= p.Y0 && c.Y <= p.Y1
}

// Cells enumerates the placement cells the pblock spans.
func (p Pblock) Cells() []Cell {
	out := make([]Cell, 0, p.CellCount())
	for y := p.Y0; y <= p.Y1; y++ {
		for x := p.X0; x <= p.X1; x++ {
			out = append(out, Cell{X: x, Y: y})
		}
	}
	return out
}

// String renders the pblock as a slice-range style constraint.
func (p Pblock) String() string {
	return fmt.Sprintf("%s: SUBCOL_X%dY%d:SUBCOL_X%dY%d", p.Name, p.X0, p.Y0, p.X1, p.Y1)
}

// Validate checks that the pblock lies inside the device grid.
func (p Pblock) Validate(d *Device) error {
	if p.X0 > p.X1 || p.Y0 > p.Y1 {
		return fmt.Errorf("fpga: pblock %s has inverted corners", p.Name)
	}
	if p.X0 < 0 || p.Y0 < 0 || p.X1 >= d.GridCols() || p.Y1 >= d.GridRows() {
		return fmt.Errorf("fpga: pblock %s exceeds %s placement grid %dx%d",
			p.Name, d.Name, d.GridCols(), d.GridRows())
	}
	return nil
}

// ResourcesOn returns the fabric resources enclosed by the pblock on
// device d.
func (p Pblock) ResourcesOn(d *Device) Resources {
	return d.CellResources().Scale(float64(p.CellCount()))
}

// Frames returns the number of configuration frames covering the pblock,
// which (times the frame size) bounds the uncompressed partial bitstream.
func (p Pblock) Frames(d *Device) int {
	lutsPerCell := d.CellResources()[LUT]
	// A 7-series CLB column holds 50 CLBs × 8 LUTs = 400 LUTs per region
	// height; use that to estimate resource columns per cell.
	cols := int(math.Ceil(float64(lutsPerCell) / 400.0))
	return p.CellCount() * cols * d.FramesPerRegionCol
}

// Occupancy tracks which placement cells of a device are already claimed
// by pblocks, so floorplanning can avoid overlap.
type Occupancy struct {
	dev   *Device
	taken []string // cell index -> owner name ("" = free)
}

// NewOccupancy returns an empty occupancy map for device d.
func NewOccupancy(d *Device) *Occupancy {
	return &Occupancy{dev: d, taken: make([]string, d.Cells())}
}

func (o *Occupancy) index(c Cell) int { return c.Y*o.dev.GridCols() + c.X }

// Owner returns the claim on cell c, or "" when free.
func (o *Occupancy) Owner(c Cell) string { return o.taken[o.index(c)] }

// CanClaim reports whether every cell of p is free.
func (o *Occupancy) CanClaim(p Pblock) bool {
	if p.Validate(o.dev) != nil {
		return false
	}
	for _, c := range p.Cells() {
		if o.taken[o.index(c)] != "" {
			return false
		}
	}
	return true
}

// Claim marks every cell of p as owned by p.Name. It fails when any cell
// is already claimed.
func (o *Occupancy) Claim(p Pblock) error {
	if err := p.Validate(o.dev); err != nil {
		return err
	}
	for _, c := range p.Cells() {
		if own := o.taken[o.index(c)]; own != "" {
			return fmt.Errorf("fpga: cell %s already claimed by %s", c, own)
		}
	}
	for _, c := range p.Cells() {
		o.taken[o.index(c)] = p.Name
	}
	return nil
}

// FreeCells returns the number of unclaimed placement cells.
func (o *Occupancy) FreeCells() int {
	n := 0
	for _, own := range o.taken {
		if own == "" {
			n++
		}
	}
	return n
}
