package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"presp/internal/bitstream"
)

// goldenJSON holds the committed reference outputs every operation is
// checked against. They were recorded from the program itself, so a
// change that alters any result — a bitstream byte, a modelled minute,
// a simulated nanosecond — fails the benchmark instead of passing for a
// speed-up. Regenerate with `go test -run TestGolden -update` only when
// a change to the outputs is intended.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	// Flow maps "<preset>#<variant>" to the digest of the flow-cold
	// result for that perturbed design.
	Flow map[string]string `json:"flow"`
	// Specs maps a serve-mixed spec key to the digest of its result.
	Specs map[string]string `json:"specs"`
	// WAMI maps "<soc>#<scene>" to the per-frame results of one
	// steady-state frame batch.
	WAMI map[string][]frameRef `json:"wami"`
}

// frameRef is one frame of a reference WAMI batch: simulated latency,
// energy and the pipeline's own outputs.
type frameRef struct {
	TimeNS     int64   `json:"time_ns"`
	EnergyJ    float64 `json:"energy_j"`
	Reconfigs  int     `json:"reconfigs"`
	Detections int     `json:"detections"`
	LKIters    int     `json:"lk_iters"`
	MotionErr  float64 `json:"motion_err"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// crcList fingerprints bitstream images as sorted "name:crc32" strings,
// the format the server reports in ResultView.BitstreamCRCs.
func crcList(images []*bitstream.Bitstream) []string {
	out := make([]string, 0, len(images))
	for _, bs := range images {
		if bs != nil {
			out = append(out, fmt.Sprintf("%s:%08x", bs.Name, bs.Checksum))
		}
	}
	sort.Strings(out)
	return out
}

// resultDigest fingerprints a flow result: the modelled total time and
// the sorted bitstream CRCs.
func resultDigest(totalMin float64, crcs []string) string {
	return digestOf(strconv.FormatFloat(totalMin, 'g', -1, 64) + "|" + strings.Join(crcs, ","))
}

// sameFrames compares a batch against its reference. Energy and motion
// error are sums of floating-point terms whose last bits depend on the
// runtime's accumulated totals, so they match to a relative 1e-9; every
// other field matches exactly.
func sameFrames(got, want []frameRef) error {
	if len(got) != len(want) {
		return mismatch("%d frames, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.TimeNS != w.TimeNS || g.Reconfigs != w.Reconfigs || g.Detections != w.Detections || g.LKIters != w.LKIters ||
			!close9(g.EnergyJ, w.EnergyJ) || !close9(g.MotionErr, w.MotionErr) {
			return mismatch("frame %d: got %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
