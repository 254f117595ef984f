package vivado

import (
	"fmt"
	"strings"

	"presp/internal/fpga"
)

// UtilizationReport renders a vendor-style resource utilization report
// for a design (or partition) using `used` resources on the tool's
// device — the report_utilization artifact designers read after
// synthesis and implementation.
func (t *Tool) UtilizationReport(name string, used fpga.Resources) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Utilization Design Information\n")
	fmt.Fprintf(&b, "Design: %s  Part: %s (%s)\n\n", name, t.dev.Name, t.dev.Board)
	b.WriteString("+-----------+--------+-----------+--------+\n")
	b.WriteString("| Site Type | Used   | Available | Util%  |\n")
	b.WriteString("+-----------+--------+-----------+--------+\n")
	for _, k := range fpga.Kinds() {
		avail := t.dev.Total[k]
		pct := 0.0
		if avail > 0 {
			pct = 100 * float64(used[k]) / float64(avail)
		}
		fmt.Fprintf(&b, "| %-9s | %6d | %9d | %5.1f%% |\n", k, used[k], avail, pct)
	}
	b.WriteString("+-----------+--------+-----------+--------+\n")
	return b.String()
}
