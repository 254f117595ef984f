// Package fpga models Xilinx FPGA devices at the granularity the PR-ESP
// flow needs: resource totals, the clock-region grid, the column layout of
// the fabric, and configuration frames. The models reproduce the public
// geometry of the evaluation boards used in the paper (VC707, VCU118,
// VCU128) so that floorplanning, utilization metrics and DPR legality
// checks behave as they would on the real parts.
package fpga

import (
	"fmt"
	"sort"
)

// ResourceKind enumerates the fabric resource types tracked by the flow.
type ResourceKind int

const (
	LUT ResourceKind = iota
	FF
	BRAM // 36Kb block RAM tiles
	DSP  // DSP48 slices
	numResourceKinds
)

// String returns the vendor-style resource mnemonic.
func (k ResourceKind) String() string {
	switch k {
	case LUT:
		return "LUT"
	case FF:
		return "FF"
	case BRAM:
		return "BRAM"
	case DSP:
		return "DSP"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Kinds lists every tracked resource kind in a stable order.
func Kinds() []ResourceKind {
	return []ResourceKind{LUT, FF, BRAM, DSP}
}

// Resources is a vector of resource quantities indexed by ResourceKind.
type Resources [numResourceKinds]int

// NewResources builds a resource vector from the common four quantities.
func NewResources(lut, ff, bram, dsp int) Resources {
	var r Resources
	r[LUT], r[FF], r[BRAM], r[DSP] = lut, ff, bram, dsp
	return r
}

// Add returns the element-wise sum r + o.
func (r Resources) Add(o Resources) Resources {
	var s Resources
	for i := range r {
		s[i] = r[i] + o[i]
	}
	return s
}

// Sub returns the element-wise difference r - o.
func (r Resources) Sub(o Resources) Resources {
	var s Resources
	for i := range r {
		s[i] = r[i] - o[i]
	}
	return s
}

// Scale returns r with every element multiplied by f and rounded down.
func (r Resources) Scale(f float64) Resources {
	var s Resources
	for i := range r {
		s[i] = int(float64(r[i]) * f)
	}
	return s
}

// Covers reports whether r has at least as much of every resource as need.
func (r Resources) Covers(need Resources) bool {
	for i := range r {
		if r[i] < need[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every element of r is zero.
func (r Resources) IsZero() bool {
	for _, v := range r {
		if v != 0 {
			return false
		}
	}
	return true
}

// Max returns the element-wise maximum of r and o.
func (r Resources) Max(o Resources) Resources {
	var s Resources
	for i := range r {
		s[i] = r[i]
		if o[i] > s[i] {
			s[i] = o[i]
		}
	}
	return s
}

// String renders the vector as "LUT=.. FF=.. BRAM=.. DSP=..".
func (r Resources) String() string {
	return fmt.Sprintf("LUT=%d FF=%d BRAM=%d DSP=%d", r[LUT], r[FF], r[BRAM], r[DSP])
}

// UtilizationOf returns need[k] / r[k] as a fraction, or +Inf style 1e9
// when the device has none of that resource but the need is non-zero.
func (r Resources) UtilizationOf(need Resources, k ResourceKind) float64 {
	if r[k] == 0 {
		if need[k] == 0 {
			return 0
		}
		return 1e9
	}
	return float64(need[k]) / float64(r[k])
}

// ClockRegion identifies one clock region of the device grid. Xilinx names
// them XxYy with X the column and Y the row.
type ClockRegion struct {
	X, Y int
}

// String renders the vendor-style clock region name, e.g. "X1Y3".
func (c ClockRegion) String() string { return fmt.Sprintf("X%dY%d", c.X, c.Y) }

// Device models one FPGA part. The fabric is abstracted as a grid of clock
// regions, each carrying an identical share of the device resources (a
// simplification that preserves totals and region-level granularity, which
// is what DFX floorplanning constrains against).
type Device struct {
	// Name is the part name, e.g. "xc7vx485t" for the VC707 board.
	Name string
	// Board is the evaluation board the part ships on.
	Board string
	// Family is the device family; it selects the ICAP primitive flavour.
	Family Family
	// Total holds the whole-device resource counts.
	Total Resources
	// RegionCols and RegionRows give the clock-region grid dimensions.
	RegionCols, RegionRows int
	// SubColsPerRegion subdivides each clock region horizontally into
	// placement sub-columns. DFX pblocks on these parts must span full
	// clock-region height but may claim a fraction of a region's width
	// (column granularity), which is what lets many small partitions
	// coexist; FLORA exploits the same granularity.
	SubColsPerRegion int
	// FrameWords is the size in 32-bit words of one configuration frame.
	FrameWords int
	// FramesPerRegionCol is the number of configuration frames covering one
	// clock-region-height column of fabric.
	FramesPerRegionCol int
	// ICAPBandwidth is the ICAP throughput in bytes per second at the
	// reference configuration clock (100 MHz, 32-bit word per cycle).
	ICAPBandwidth float64
}

// Family is an FPGA device family.
type Family int

const (
	// Virtex7 parts (VC707) use the ICAPE2 primitive.
	Virtex7 Family = iota
	// UltraScalePlus parts (VCU118, VCU128) use the ICAPE3 primitive.
	UltraScalePlus
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case Virtex7:
		return "Virtex-7"
	case UltraScalePlus:
		return "UltraScale+"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// ICAPPrimitive returns the configuration-port primitive for the family.
func (f Family) ICAPPrimitive() string {
	if f == UltraScalePlus {
		return "ICAPE3"
	}
	return "ICAPE2"
}

// Regions returns the total number of clock regions.
func (d *Device) Regions() int { return d.RegionCols * d.RegionRows }

// GridCols returns the placement grid width in sub-columns.
func (d *Device) GridCols() int { return d.RegionCols * d.SubColsPerRegion }

// GridRows returns the placement grid height (clock-region rows).
func (d *Device) GridRows() int { return d.RegionRows }

// Cells returns the total placement cell count (sub-column × region row).
func (d *Device) Cells() int { return d.GridCols() * d.GridRows() }

// CellResources returns the resources of one placement cell.
func (d *Device) CellResources() Resources {
	n := d.Cells()
	var r Resources
	for i := range d.Total {
		r[i] = d.Total[i] / n
	}
	return r
}

// RegionAt validates and returns the clock region at grid position (x, y).
func (d *Device) RegionAt(x, y int) (ClockRegion, error) {
	if x < 0 || x >= d.RegionCols || y < 0 || y >= d.RegionRows {
		return ClockRegion{}, fmt.Errorf("fpga: clock region X%dY%d outside %s grid %dx%d",
			x, y, d.Name, d.RegionCols, d.RegionRows)
	}
	return ClockRegion{X: x, Y: y}, nil
}

// VC707 returns the device model for the Xilinx VC707 board (XC7VX485T).
// Resource counts are the public part totals.
func VC707() *Device {
	return &Device{
		Name:               "xc7vx485t",
		Board:              "VC707",
		Family:             Virtex7,
		Total:              NewResources(303600, 607200, 1030, 2800),
		RegionCols:         2,
		SubColsPerRegion:   4,
		RegionRows:         7,
		FrameWords:         101,
		FramesPerRegionCol: 36,
		ICAPBandwidth:      400e6, // 32 bits @ 100 MHz
	}
}

// VCU118 returns the device model for the Xilinx VCU118 board (XCVU9P).
func VCU118() *Device {
	return &Device{
		Name:               "xcvu9p",
		Board:              "VCU118",
		Family:             UltraScalePlus,
		Total:              NewResources(1182240, 2364480, 2160, 6840),
		RegionCols:         6,
		SubColsPerRegion:   3,
		RegionRows:         15,
		FrameWords:         93,
		FramesPerRegionCol: 32,
		ICAPBandwidth:      400e6,
	}
}

// VCU128 returns the device model for the Xilinx VCU128 board (XCVU37P).
func VCU128() *Device {
	return &Device{
		Name:               "xcvu37p",
		Board:              "VCU128",
		Family:             UltraScalePlus,
		Total:              NewResources(1303680, 2607360, 2016, 9024),
		RegionCols:         6,
		SubColsPerRegion:   3,
		RegionRows:         15,
		FrameWords:         93,
		FramesPerRegionCol: 32,
		ICAPBandwidth:      400e6,
	}
}

// ByBoard returns the device model for a board name, or an error listing
// the supported boards.
func ByBoard(board string) (*Device, error) {
	switch board {
	case "VC707", "vc707":
		return VC707(), nil
	case "VCU118", "vcu118":
		return VCU118(), nil
	case "VCU128", "vcu128":
		return VCU128(), nil
	}
	return nil, fmt.Errorf("fpga: unsupported board %q (supported: VC707, VCU118, VCU128)", board)
}

// Boards lists the supported evaluation boards in stable order.
func Boards() []string {
	b := []string{"VC707", "VCU118", "VCU128"}
	sort.Strings(b)
	return b
}
