// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I-VI, Fig 3, Fig 4) from the simulated PR-ESP
// platform. Each experiment returns structured results plus a rendered
// text table matching the paper's rows; cmd/presp-bench and the
// top-level benchmarks drive these functions, and EXPERIMENTS.md records
// paper-vs-measured for every cell.
package experiments

import (
	"fmt"
	"sync"

	"presp/internal/accel"
	"presp/internal/socgen"
	"presp/internal/wami"
)

// registry builds the combined accelerator registry (characterization
// accelerators + the twelve WAMI kernels).
func registry() (*accel.Registry, error) {
	reg := accel.Default()
	if err := wami.AddTo(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// elaborate builds a design from a config against the combined registry.
func elaborate(cfg *socgen.Config) (*socgen.Design, error) {
	reg, err := registry()
	if err != nil {
		return nil, err
	}
	d, err := socgen.Elaborate(cfg, reg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
	}
	return d, nil
}

// flowSoCs builds the four WAMI flow SoCs SoC_A..SoC_D that Tables IV
// and V evaluate.
func flowSoCs() ([]*socgen.Config, error) {
	var cfgs []*socgen.Config
	for _, name := range wami.FlowSoCNames() {
		cfg, err := wami.FlowSoC(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// ElaborateConfig elaborates a configuration against the full
// experiment registry (characterization + WAMI accelerators); exported
// for the CLI tools.
func ElaborateConfig(cfg *socgen.Config) (*socgen.Design, error) {
	return elaborate(cfg)
}

// PresetConfig returns a built-in SoC configuration by name: the four
// characterization SoCs (SOC_1..SOC_4), the four WAMI flow SoCs
// (SoC_A..SoC_D) and the three runtime SoCs (SoC_X/SoC_Y/SoC_Z).
func PresetConfig(name string) (*socgen.Config, error) {
	switch name {
	case "SOC_1":
		return socgen.SOC1(), nil
	case "SOC_2":
		return socgen.SOC2(), nil
	case "SOC_3":
		return socgen.SOC3(), nil
	case "SOC_4":
		return socgen.SOC4(), nil
	case "SoC_A", "SoC_B", "SoC_C", "SoC_D":
		return wami.FlowSoC(name)
	case "SoC_X", "SoC_Y", "SoC_Z":
		cfg, _, err := wami.RuntimeSoC(name)
		return cfg, err
	}
	return nil, unknownPreset(name)
}

// unknownPreset is the error for a name that is not a built-in preset.
func unknownPreset(name string) error {
	return fmt.Errorf("experiments: unknown preset %q", name)
}

// presetDesigns elaborates each preset on first use, freezes the design
// and keeps it; a preset that fails to elaborate keeps its error.
var presetDesigns = func() map[string]func() (*socgen.Design, error) {
	m := make(map[string]func() (*socgen.Design, error))
	for _, name := range PresetNames() {
		m[name] = sync.OnceValues(func() (*socgen.Design, error) {
			cfg, err := PresetConfig(name)
			if err != nil {
				return nil, err
			}
			d, err := elaborate(cfg)
			if err != nil {
				return nil, err
			}
			d.Freeze()
			return d, nil
		})
	}
	return m
}()

// PresetDesign returns the elaborated design of a built-in preset. The
// design is elaborated once per process and shared by every caller, so
// it is read-only: a caller that edits a design must elaborate its own
// with ElaborateConfig. The flow engine never writes the design it
// runs, and the design is frozen (socgen.Design.Freeze), so the flow
// derives its static top and stage keys once and looks them up on
// every later run.
func PresetDesign(name string) (*socgen.Design, error) {
	design, ok := presetDesigns[name]
	if !ok {
		return nil, unknownPreset(name)
	}
	return design()
}

// PresetNames lists the built-in configurations in a stable order.
func PresetNames() []string {
	return []string{
		"SOC_1", "SOC_2", "SOC_3", "SOC_4",
		"SoC_A", "SoC_B", "SoC_C", "SoC_D",
		"SoC_X", "SoC_Y", "SoC_Z",
	}
}
