package presp

import (
	"fmt"
	"strings"

	"presp/internal/experiments"
	"presp/internal/report"
)

// ExperimentNames lists the paper artifacts RunExperiment regenerates.
func ExperimentNames() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig4", "map", "stability",
	}
}

// RunExperiment regenerates one of the paper's evaluation artifacts and
// returns the rendered table: "table1".."table6" (or "1".."6") and
// "fig3"/"fig4" are the paper's tables and figures; "map" is the
// Section IV design-space sweep, followed by the size-driven choice's
// agreement with the exhaustive best, and "stability" the
// strategy-winner sensitivity analysis.
func RunExperiment(name string) (string, error) {
	var (
		r   interface{ Render() *report.Table }
		err error
	)
	switch strings.ToLower(name) {
	case "table1", "1":
		r, err = experiments.Table1()
	case "table2", "2":
		r, err = experiments.Table2()
	case "table3", "3":
		r, err = experiments.Table3()
	case "table4", "4":
		r, err = experiments.Table4()
	case "table5", "5":
		r, err = experiments.Table5()
	case "table6", "6":
		r, err = experiments.Table6()
	case "fig3":
		r, err = experiments.Fig3()
	case "fig4":
		r, err = experiments.Fig4(experiments.Fig4Options{Compress: true})
	case "map":
		m, err := experiments.StrategyMap()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s\nsize-driven choice within 3%% of the exhaustive best on %.0f%% of %d designs\n",
			m.Render(), m.Agreement(0.03)*100, len(m.Points)), nil
	case "stability":
		r, err = experiments.Stability(32, 0.03)
	default:
		return "", fmt.Errorf("presp: unknown experiment %q (want %v)", name, ExperimentNames())
	}
	if err != nil {
		return "", err
	}
	return r.Render().String(), nil
}
