// Command presp-bench regenerates the paper's evaluation: every table
// (I-VI) and figure (3, 4), printed as the same rows/series the paper
// reports, from the simulated PR-ESP platform.
//
// Usage:
//
//	presp-bench            # everything
//	presp-bench -only 3    # just Table III
//	presp-bench -only fig4
//	presp-bench -only map   # the Section IV design-space sweep
package main

import (
	"flag"
	"fmt"
	"os"

	"presp"
)

func main() {
	only := flag.String("only", "", "run one experiment: 1..6, fig3, fig4, map or stability (default: all)")
	flag.Parse()

	targets := presp.ExperimentNames()
	if *only != "" {
		targets = []string{*only}
	}
	for _, t := range targets {
		out, err := presp.RunExperiment(t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "presp-bench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
