// Package rtl represents the RTL hierarchy the PR-ESP flow manipulates:
// modules, instances, ports and black boxes. The flow does not need full
// gate-level netlists — it needs the structural hierarchy (to split static
// from reconfigurable sources), port lists (to check reconfigurable
// wrapper interface compliance and DFX rules) and per-module resource
// statistics (for the size-driven parallelism model).
package rtl

import (
	"fmt"

	"presp/internal/fpga"
)

// PortDir is the direction of a module port.
type PortDir int

const (
	In PortDir = iota
	Out
	InOut
)

// String returns the Verilog-style direction keyword.
func (d PortDir) String() string {
	switch d {
	case In:
		return "input"
	case Out:
		return "output"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("PortDir(%d)", int(d))
	}
}

// PortClass tags ports with their architectural role so DFX design rule
// checks can reason about them without parsing names.
type PortClass int

const (
	// DataPort carries load/store or streaming payload.
	DataPort PortClass = iota
	// ConfigPort is a memory-mapped register interface.
	ConfigPort
	// ClockPort is a clock input.
	ClockPort
	// ClockOutPort is a clock *output* — prohibited inside reconfigurable
	// partitions by the Xilinx DFX guideline on route-through clocks.
	ClockOutPort
	// ResetPort is a reset input.
	ResetPort
	// InterruptPort signals task completion.
	InterruptPort
)

// String names the port class.
func (c PortClass) String() string {
	switch c {
	case DataPort:
		return "data"
	case ConfigPort:
		return "config"
	case ClockPort:
		return "clock"
	case ClockOutPort:
		return "clock-out"
	case ResetPort:
		return "reset"
	case InterruptPort:
		return "interrupt"
	default:
		return fmt.Sprintf("PortClass(%d)", int(c))
	}
}

// Port is one port of a module interface.
type Port struct {
	Name  string
	Dir   PortDir
	Width int
	Class PortClass
}

// Module is an RTL module definition.
type Module struct {
	// Name is the module name, unique within a Library.
	Name string
	// Ports is the module interface.
	Ports []Port
	// Cost is the post-synthesis resource estimate for the module body
	// excluding children (set by the HLS estimator or the tile library).
	Cost fpga.Resources
	// Children are the instantiated sub-modules.
	Children []*Instance
	// BlackBox marks a module whose implementation is deliberately absent
	// (the flow replaces reconfigurable accelerators with black boxes
	// during static synthesis).
	BlackBox bool
	// ClockModifying marks modules containing clock-modifying primitives
	// (MMCM/PLL/BUFGCE), which Xilinx DFX prohibits inside reconfigurable
	// partitions.
	ClockModifying bool
}

// Instance is one instantiation of a module inside a parent.
type Instance struct {
	// InstName is the instance name within the parent.
	InstName string
	// Mod is the instantiated module definition.
	Mod *Module
}

// AddChild instantiates child inside m under instName.
func (m *Module) AddChild(instName string, child *Module) *Instance {
	inst := &Instance{InstName: instName, Mod: child}
	m.Children = append(m.Children, inst)
	return inst
}

// AddPort appends a port to the module interface.
func (m *Module) AddPort(name string, dir PortDir, width int, class PortClass) {
	m.Ports = append(m.Ports, Port{Name: name, Dir: dir, Width: width, Class: class})
}

// TotalCost returns the resource cost of the module including all
// children, recursively. Black boxes contribute nothing.
func (m *Module) TotalCost() fpga.Resources {
	if m.BlackBox {
		return fpga.Resources{}
	}
	total := m.Cost
	for _, c := range m.Children {
		total = total.Add(c.Mod.TotalCost())
	}
	return total
}

// ContainsClockModifying reports whether the module or any descendant
// contains clock-modifying logic.
func (m *Module) ContainsClockModifying() bool {
	if m.ClockModifying {
		return true
	}
	for _, c := range m.Children {
		if c.Mod.ContainsClockModifying() {
			return true
		}
	}
	return false
}

// DrivesClockOut reports whether the module interface drives a clock
// output (a route-through clock path under DFX rules).
func (m *Module) DrivesClockOut() bool {
	for _, p := range m.Ports {
		if p.Class == ClockOutPort && p.Dir == Out {
			return true
		}
	}
	return false
}

// Walk visits m and every descendant module in depth-first order. The
// visit function receives the hierarchical path of each module.
func (m *Module) Walk(visit func(path string, mod *Module)) {
	m.walk(m.Name, visit)
}

func (m *Module) walk(path string, visit func(string, *Module)) {
	visit(path, m)
	for _, c := range m.Children {
		c.Mod.walk(path+"/"+c.InstName, visit)
	}
}

// Find returns the first descendant instance whose module name matches,
// or nil.
func (m *Module) Find(moduleName string) *Module {
	if m.Name == moduleName {
		return m
	}
	for _, c := range m.Children {
		if found := c.Mod.Find(moduleName); found != nil {
			return found
		}
	}
	return nil
}

// CloneAsBlackBox returns a black-box wrapper carrying the same interface
// as m but no contents. The PR-ESP flow auto-generates these for every
// reconfigurable accelerator before static synthesis.
func (m *Module) CloneAsBlackBox() *Module {
	bb := &Module{
		Name:     m.Name + "_bb",
		Ports:    append([]Port(nil), m.Ports...),
		BlackBox: true,
	}
	return bb
}
