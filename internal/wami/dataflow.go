package wami

import "fmt"

// Node is one accelerator invocation site in the Fig 3 dataflow model.
type Node struct {
	// Kernel is the Fig 3 kernel index.
	Kernel int
	// Deps are the kernel indices whose outputs this node consumes.
	Deps []int
	// PerIteration marks nodes inside the Lucas-Kanade refinement loop
	// (executed once per LK iteration rather than once per frame).
	PerIteration bool
}

// Dataflow returns the WAMI-App dataflow graph of Fig 3: the frame
// front-end (Debayer, Grayscale), the Lucas-Kanade registration stage
// decomposed into its setup chain (Gradient → Steepest-Descent →
// Hessian → Matrix-Invert) and its per-iteration loop (Warp → Subtract
// → SD-Update → Mult → Reshape-Add), and the Change-Detection backend.
func Dataflow() []Node {
	return []Node{
		{Kernel: KDebayer},
		{Kernel: KGrayscale, Deps: []int{KDebayer}},
		{Kernel: KGradient, Deps: []int{KGrayscale}},
		{Kernel: KSteepestDescent, Deps: []int{KGradient}},
		{Kernel: KHessian, Deps: []int{KSteepestDescent}},
		{Kernel: KMatrixInvert, Deps: []int{KHessian}},
		{Kernel: KWarpImg, Deps: []int{KGrayscale, KReshapeAdd}, PerIteration: true},
		{Kernel: KSubtract, Deps: []int{KWarpImg}, PerIteration: true},
		{Kernel: KSDUpdate, Deps: []int{KSteepestDescent, KSubtract}, PerIteration: true},
		{Kernel: KMult, Deps: []int{KMatrixInvert, KSDUpdate}, PerIteration: true},
		{Kernel: KReshapeAdd, Deps: []int{KMult}, PerIteration: true},
		{Kernel: KChangeDetection, Deps: []int{KWarpImg}},
	}
}

// NodeFor returns the dataflow node of kernel idx.
func NodeFor(idx int) (Node, error) {
	for _, n := range Dataflow() {
		if n.Kernel == idx {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("wami: kernel %d not in the dataflow graph", idx)
}
