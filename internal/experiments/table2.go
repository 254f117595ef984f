package experiments

import (
	"context"
	"fmt"

	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/report"
	"presp/internal/socgen"
	"presp/internal/tile"
	"presp/internal/vivado"
)

// Table2Row is one column of the paper's Table II (accelerator resource
// utilization).
type Table2Row struct {
	Name string
	LUTs int
}

// Table2Result holds the utilization of the characterization
// accelerators, the CPU tile and the static part with and without the
// processor, all measured by running the simulated synthesis flow on
// profiling SoCs (not read off a constant table).
type Table2Result struct {
	Rows []Table2Row
}

// Table2 regenerates the resource utilization table by synthesizing
// each accelerator in the 2x2 profiling SoC and the static parts of the
// characterization SoCs.
func Table2() (*Table2Result, error) {
	reg, err := registry()
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}
	for _, acc := range []string{"mac", "conv2d", "gemm", "fft", "sort"} {
		cfg := socgen.Profiling2x2(acc)
		d, err := socgen.Elaborate(cfg, reg)
		if err != nil {
			return nil, err
		}
		tool, err := vivado.New(d.Dev, nil)
		if err != nil {
			return nil, err
		}
		if len(d.RPs) != 1 {
			return nil, fmt.Errorf("experiments: profiling SoC for %s has %d partitions", acc, len(d.RPs))
		}
		ck, err := tool.Synthesize(context.Background(), "", d.RPs[0].Content, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{Name: acc, LUTs: ck.Resources[fpga.LUT]})
	}
	// CPU tile utilization (Leon3 configuration; the tile's own logic,
	// excluding the NoC router the paper accounts with the static part).
	res.Rows = append(res.Rows, Table2Row{Name: "CPU", LUTs: tile.CPUTileCost(tile.Leon3)[fpga.LUT]})

	// Static part of the characterization SoCs, with and without CPU
	// (SOC_2 vs SOC_4), measured through the flow's static synthesis.
	for _, spec := range []struct {
		label string
		cfg   *socgen.Config
	}{
		{"Static", socgen.SOC2()},
		{"Static (w/o CPU)", socgen.SOC4()},
	} {
		d, err := socgen.Elaborate(spec.cfg, reg)
		if err != nil {
			return nil, err
		}
		tool, err := vivado.New(d.Dev, nil)
		if err != nil {
			return nil, err
		}
		ck, err := tool.Synthesize(context.Background(), "", flow.BuildStaticTop(d), false)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{Name: spec.label, LUTs: ck.Resources[fpga.LUT]})
	}
	return res, nil
}

// LUTsOf returns the measured LUTs for a row name.
func (r *Table2Result) LUTsOf(name string) (int, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row.LUTs, true
		}
	}
	return 0, false
}

// Render builds the Table II layout.
func (r *Table2Result) Render() *report.Table {
	t := report.New("Table II — resource utilization of the accelerators", "", "LUTs")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.LUTs)
	}
	return t
}
