// WAMI pipeline: run the paper's Wide Area Motion Imagery application
// (Debayer -> Grayscale -> Lucas-Kanade -> Change-Detection) on the
// three runtime SoCs of the evaluation, with accelerators swapped in
// and out by the reconfiguration manager — the Fig 4 experiment as a
// library client.
package main

import (
	"fmt"
	"log"
	"sort"

	"presp"
)

func main() {
	p, err := presp.NewPlatform("VC707")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("WAMI-App on the runtime SoCs (5 frames of 128x128, synthetic imagery):")
	fmt.Println()
	type row struct {
		name string
		rep  *presp.WAMIReport
	}
	var rows []row
	for _, name := range []string{"SoC_X", "SoC_Y", "SoC_Z"} {
		// Show the Table VI partitioning.
		_, alloc, err := presp.WAMIRuntimeSoC(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s partitioning:\n", name)
		tiles := make([]string, 0, len(alloc))
		for tileName := range alloc {
			tiles = append(tiles, tileName)
		}
		sort.Strings(tiles)
		for _, tileName := range tiles {
			names := make([]string, 0, len(alloc[tileName]))
			for _, idx := range alloc[tileName] {
				n, err := presp.WAMIKernelName(idx)
				if err != nil {
					log.Fatal(err)
				}
				names = append(names, n)
			}
			fmt.Printf("  %s: %v\n", tileName, names)
		}

		rep, err := p.RunWAMI(name, presp.WAMIOptions{Frames: 5, Compress: true})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name: name, rep: rep})
		fmt.Printf("  -> %.4f s/frame, %.3f J/frame, %d reconfigurations, %d CPU-fallback kernels\n\n",
			rep.TimePerFrame, rep.EnergyPerFrame, rep.Reconfigurations, rep.CPUFallbacks)

		// The pipeline is functional: the SoC finds the moving targets.
		det := 0
		for _, f := range rep.Frames[1:] {
			det += f.Detections
		}
		if det == 0 {
			log.Fatalf("%s detected no targets — the pipeline is broken", name)
		}
	}

	// The Fig 4 trade-off: fewer tiles run longer but spend less energy
	// per frame.
	x, y, z := rows[0].rep, rows[1].rep, rows[2].rep
	fmt.Println("Fig 4 trade-off:")
	fmt.Printf("  execution time:    X %.2fx vs Y, %.2fx vs Z (X slowest)\n",
		x.TimePerFrame/y.TimePerFrame, x.TimePerFrame/z.TimePerFrame)
	fmt.Printf("  energy efficiency: X best — Y %.2fx, Z %.2fx worse J/frame\n",
		y.EnergyPerFrame/x.EnergyPerFrame, z.EnergyPerFrame/x.EnergyPerFrame)
}
