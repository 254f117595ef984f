package flow

import (
	"fmt"
	"sort"
	"strings"

	"presp/internal/core"
	"presp/internal/floorplan"
	"presp/internal/socgen"
)

// Scripts holds the auto-generated CAD scripts the flow would hand to
// the vendor tool: one synthesis script per module, the floorplan
// constraints, one implementation script per run, and the Makefile that
// drives everything from a single target — the artifact Section IV's
// "single make target" claim refers to. The simulated tool does not
// execute them; they document (and test) exactly what the flow decided.
type Scripts struct {
	// Synthesis maps module name to its synthesis Tcl.
	Synthesis map[string]string
	// FloorplanXDC is the pblock constraint file.
	FloorplanXDC string
	// Implementation maps run name ("static", "run_1", ...) to its
	// implementation Tcl.
	Implementation map[string]string
	// Makefile drives the whole compilation.
	Makefile string
}

// GenerateScripts renders the scripts for a design under a chosen
// strategy and floorplan.
func GenerateScripts(d *socgen.Design, strat *core.Strategy, plan *floorplan.Plan) (*Scripts, error) {
	if d == nil || strat == nil || plan == nil {
		return nil, fmt.Errorf("flow: nil inputs to script generation")
	}
	for _, rp := range d.RPs {
		if rp.Content == nil {
			return nil, fmt.Errorf("flow: partition %s has no content to script", rp.Name)
		}
	}
	s := &Scripts{
		Synthesis:      make(map[string]string),
		Implementation: make(map[string]string),
	}

	// --- Synthesis scripts: static (with black boxes) + per-RP OoC. ---
	var b strings.Builder
	fmt.Fprintf(&b, "# auto-generated by pr-esp\nread_verilog %s_static.v\n", d.Cfg.Name)
	for _, rp := range d.RPs {
		fmt.Fprintf(&b, "# %s left as a black box\n", rp.Name)
	}
	fmt.Fprintf(&b, "synth_design -top %s_static -part %s\n", d.Cfg.Name, d.Dev.Name)
	fmt.Fprintf(&b, "write_checkpoint -force %s_static_synth.dcp\n", d.Cfg.Name)
	s.Synthesis["static"] = b.String()
	for _, rp := range d.RPs {
		var r strings.Builder
		fmt.Fprintf(&r, "# auto-generated by pr-esp\nread_verilog %s.v\n", rp.Content.Name)
		fmt.Fprintf(&r, "synth_design -mode out_of_context -top %s -part %s\n", rp.Content.Name, d.Dev.Name)
		fmt.Fprintf(&r, "write_checkpoint -force %s_synth.dcp\n", rp.Name)
		s.Synthesis[rp.Name] = r.String()
	}

	// --- Floorplan constraints. ---
	var x strings.Builder
	x.WriteString("# auto-generated pblock constraints (FLORA-adapted floorplan)\n")
	names := make([]string, 0, len(plan.Pblocks))
	for n := range plan.Pblocks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pb := plan.Pblocks[n]
		fmt.Fprintf(&x, "create_pblock pblock_%s\n", n)
		fmt.Fprintf(&x, "resize_pblock pblock_%s -add {SLICE_X%dY%d:SLICE_X%dY%d}\n",
			n, pb.X0*50, pb.Y0*50, (pb.X1+1)*50-1, (pb.Y1+1)*50-1)
		fmt.Fprintf(&x, "add_cells_to_pblock pblock_%s [get_cells %s]\n", n, n)
		fmt.Fprintf(&x, "set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_%s]\n", n)
		fmt.Fprintf(&x, "set_property HD.RECONFIGURABLE true [get_cells %s]\n", n)
	}
	s.FloorplanXDC = x.String()

	// --- Implementation scripts per strategy. ---
	switch strat.Kind {
	case core.Serial:
		var r strings.Builder
		r.WriteString("# serial implementation: whole design in one run\n")
		fmt.Fprintf(&r, "open_checkpoint %s_static_synth.dcp\n", d.Cfg.Name)
		for _, rp := range d.RPs {
			fmt.Fprintf(&r, "read_checkpoint -cell %s %s_synth.dcp\n", rp.Name, rp.Name)
		}
		fmt.Fprintf(&r, "read_xdc %s_floorplan.xdc\nopt_design\nplace_design\nroute_design\n", d.Cfg.Name)
		fmt.Fprintf(&r, "write_bitstream -force %s.bit\n", d.Cfg.Name)
		for _, rp := range d.RPs {
			fmt.Fprintf(&r, "write_bitstream -cell %s -force %s.pbs\n", rp.Name, rp.Name)
		}
		s.Implementation["serial"] = r.String()
	case core.SemiParallel, core.FullyParallel:
		var st strings.Builder
		st.WriteString("# static-only pre-route with place-holder hard macros\n")
		fmt.Fprintf(&st, "open_checkpoint %s_static_synth.dcp\n", d.Cfg.Name)
		for _, rp := range d.RPs {
			fmt.Fprintf(&st, "read_checkpoint -cell %s empty_%s.dcp\n", rp.Name, rp.Name)
		}
		fmt.Fprintf(&st, "read_xdc %s_floorplan.xdc\nopt_design\nplace_design\nroute_design\n", d.Cfg.Name)
		fmt.Fprintf(&st, "lock_design -level routing\nwrite_checkpoint -force %s_static_routed.dcp\n", d.Cfg.Name)
		s.Implementation["static"] = st.String()
		for i, group := range strat.Groups {
			var r strings.Builder
			fmt.Fprintf(&r, "# in-context run %d of %d\n", i+1, strat.Tau)
			fmt.Fprintf(&r, "open_checkpoint %s_static_routed.dcp\n", d.Cfg.Name)
			for _, name := range group {
				fmt.Fprintf(&r, "read_checkpoint -cell %s %s_synth.dcp\n", name, name)
			}
			r.WriteString("opt_design\nplace_design\nroute_design\n")
			for _, name := range group {
				fmt.Fprintf(&r, "write_bitstream -cell %s -force %s.pbs\n", name, name)
			}
			s.Implementation[fmt.Sprintf("run_%d", i+1)] = r.String()
		}
	default:
		return nil, fmt.Errorf("flow: unknown strategy %v", strat.Kind)
	}

	// --- The single make target. ---
	var m strings.Builder
	fmt.Fprintf(&m, "# auto-generated by pr-esp: `make bitstreams` compiles %s end to end\n", d.Cfg.Name)
	m.WriteString("SYNTH := static")
	for _, rp := range d.RPs {
		fmt.Fprintf(&m, " %s", rp.Name)
	}
	m.WriteString("\n\nbitstreams: impl\n")
	m.WriteString("\nsynth:\n")
	m.WriteString("\tparallel vivado -mode batch -source synth_{}.tcl ::: $(SYNTH)\n")
	m.WriteString("\nimpl: synth\n")
	runs := make([]string, 0, len(s.Implementation))
	for name := range s.Implementation {
		runs = append(runs, name)
	}
	sort.Strings(runs)
	switch strat.Kind {
	case core.Serial:
		m.WriteString("\tvivado -mode batch -source impl_serial.tcl\n")
	default:
		m.WriteString("\tvivado -mode batch -source impl_static.tcl\n")
		m.WriteString("\tparallel vivado -mode batch -source impl_{}.tcl :::")
		for _, name := range runs {
			if name != "static" {
				fmt.Fprintf(&m, " %s", name)
			}
		}
		m.WriteString("\n")
	}
	s.Makefile = m.String()
	return s, nil
}
