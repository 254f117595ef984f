package flow

import (
	"presp/internal/rtl"
	"presp/internal/socgen"
)

// Hooks for the external test package (shared_test.go), which runs the
// flow on experiments.PresetDesign's shared designs — experiments
// imports flow, so those tests cannot live in package flow itself.

// ResultSignature is resultSignature.
var ResultSignature = resultSignature

// StageKeyMap returns the stage-key map a run of flowName on d under
// opt is keyed by (nil when the run is not keyed) and whether the map is
// d's memoised one. It takes the path runPartitioned takes.
func StageKeyMap(d *socgen.Design, flowName string, opt Options) (map[string]string, bool, error) {
	mode := modePRESP
	switch {
	case flowName == "standard-dfx":
		mode = modeStandardDFX
	case flowName == "monolithic" || len(d.RPs) == 0:
		return nil, false, nil // the monolithic flow has no stage keys
	}
	tool, err := setupRun(d, opt)
	if err != nil {
		return nil, false, err
	}
	strat, err := chooseStrategy(d, opt, mode)
	if err != nil {
		return nil, false, err
	}
	m := memoFor(d, opt)
	sk := buildStageKeys(d, m, m.staticTopOf(d), tool, strat, opt, mode)
	if sk == nil {
		return nil, false, nil
	}
	return sk.keys, m != nil, nil
}

// MemoStaticTop returns the static top memoised for d, nil when d has
// no memo.
func MemoStaticTop(d *socgen.Design) *rtl.Module {
	m, ok := designMemos.Load(d)
	if !ok {
		return nil
	}
	return m.(*designMemo).staticTop
}
