package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"presp/internal/bitstream"
	"presp/internal/experiments"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/server"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// flow-cold: one closed-loop client runs flow.RunPRESP (compression on,
// two scheduler workers, fresh checkpoint and stage caches per run) on
// a seeded stream of perturbed preset designs. This is the paper's
// headline path; bitstream synthesis dominates its CPU. It bypasses
// every cache hit, the server and the runtime. Each preset appears once
// per round of 11 ops, so every seed runs the same mix, and no two ops
// of a run share a design, so memoising across ops cannot pass for a
// gain.

// flowVariants is the number of perturbed designs per preset; a run
// repeats a design only after 11*flowVariants ops.
const flowVariants = 64

// flowWorkers is the scheduler pool width of every flow-cold run.
const flowWorkers = 2

type flowCold struct {
	e        *env
	presets  []string
	variants map[string][]int // per preset: the seed's variant order
	since    int64            // trace time at the end of set-up
	reg0     flowCounters
	stats    layerTally
}

// layerTally accumulates what the benchmark learns about the bitstream
// images it receives. Only single-client workloads use it.
type layerTally struct {
	verifyNS           int64
	images             int
	bytesOut, rawBytes int64
}

// verify checks every image the benchmark received and tallies its
// size; a corrupt image is an output mismatch.
func (t *layerTally) verify(e *env, lane int, images []*bitstream.Bitstream) error {
	end := e.span("bitstream.verify", lane)
	t0 := time.Now()
	defer func() {
		t.verifyNS += time.Since(t0).Nanoseconds()
		end()
	}()
	for _, bs := range images {
		if bs == nil {
			continue
		}
		if err := bs.Verify(); err != nil {
			return mismatch("%v", err)
		}
		t.images++
		t.bytesOut += int64(bs.Size())
		t.rawBytes += int64(bs.RawBytes)
	}
	return nil
}

func (t *layerTally) setBitstream(set func(string, float64)) {
	set("bitstream.verify_ms", float64(t.verifyNS)/1e6)
	set("bitstream.images", float64(t.images))
	set("bitstream.bytes_out", float64(t.bytesOut))
	if t.bytesOut > 0 {
		set("bitstream.ratio", float64(t.rawBytes)/float64(t.bytesOut))
	}
}

func setupFlowCold(e *env) (instance, error) {
	f := &flowCold{e: e, presets: experiments.PresetNames(), variants: map[string][]int{}}
	for _, p := range f.presets {
		f.variants[p] = rand.New(rand.NewSource(e.seed ^ int64(hashString(p)))).Perm(flowVariants)
	}
	// Set-up runs every unperturbed preset once through the same call,
	// checked against its reference, so lazy initialisation is not timed.
	for _, p := range f.presets {
		d, err := presetDesign(p)
		if err != nil {
			return nil, err
		}
		res, err := flow.RunPRESP(context.Background(), d, f.options())
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p, err)
		}
		key := specKey(server.Spec{Preset: p, Flow: "presp", Compress: true})
		if got, want := resultDigest(float64(res.Total), crcList(flowImages(res))), e.golden.Specs[key]; got != want {
			return nil, mismatch("warm-up %s: digest %s, reference %q", p, got, want)
		}
	}
	f.since = e.tracer().Now()
	f.reg0 = readFlowCounters(e.obs.Metrics())
	return f, nil
}

// options are the flow options of one run, with fresh caches.
func (f *flowCold) options() flow.Options {
	return flow.Options{
		Compress:   true,
		Workers:    flowWorkers,
		Cache:      vivado.NewCheckpointCache(),
		StageCache: vivado.NewStageCache(),
		Observer:   f.e.obs,
	}
}

// at maps stream index i to its design: round i/11 visits every preset
// once in a seeded order, and a preset's k-th visit takes the k-th entry
// of its seeded variant order.
func (f *flowCold) at(i int) (preset string, variant int) {
	round := i / len(f.presets)
	order := rand.New(rand.NewSource(f.e.seed*1_000_003 + int64(round))).Perm(len(f.presets))
	preset = f.presets[order[i%len(f.presets)]]
	return preset, f.variants[preset][round%flowVariants]
}

func (f *flowCold) op(c, i int) []outcome {
	preset, variant := f.at(i)
	key := fmt.Sprintf("%s#%d", preset, variant)
	d, err := perturbedDesign(preset, variant)
	if err != nil {
		return []outcome{{err: err}}
	}
	end := f.e.span("flow.run", benchLane(c))
	t0 := time.Now()
	res, err := flow.RunPRESP(context.Background(), d, f.options())
	ms := msSince(t0)
	end()
	if err != nil {
		return []outcome{{ms: ms, err: fmt.Errorf("%s: %w", key, err)}}
	}
	images := flowImages(res)
	if err := f.stats.verify(f.e, benchLane(c), images); err != nil {
		return []outcome{{ms: ms, err: fmt.Errorf("%s: %w", key, err)}}
	}
	digest := resultDigest(float64(res.Total), crcList(images))
	if want := f.e.golden.Flow[key]; digest != want {
		return []outcome{{ms: ms, err: mismatch("%s: digest %s, reference %q", key, digest, want)}}
	}
	return []outcome{{ms: ms, digest: key + "=" + digest}}
}

func (f *flowCold) layers(ev []obs.Event, set func(string, float64)) {
	runs := spansNamed(ev, f.since, "bench", "flow.run")
	jobs := spansNamed(ev, f.since, "job", "")
	flowLayers(set, runs, jobs, flowWorkers, readFlowCounters(f.e.obs.Metrics()).minus(f.reg0))
	f.stats.setBitstream(set)
}

func (f *flowCold) close() error { return nil }

func flowImages(res *flow.Result) []*bitstream.Bitstream {
	return append([]*bitstream.Bitstream{res.FullBitstream}, res.PartialBitstreams...)
}

func presetDesign(preset string) (*socgen.Design, error) {
	cfg, err := experiments.PresetConfig(preset)
	if err != nil {
		return nil, err
	}
	return experiments.ElaborateConfig(cfg)
}

// perturbedDesign elaborates a preset and scales each partition's LUT
// cost by a factor in [0.97, 1.01] drawn from (preset, variant), so every
// variant is a distinct design with its own bitstreams while the
// partition count stays that of the preset.
func perturbedDesign(preset string, variant int) (*socgen.Design, error) {
	d, err := presetDesign(preset)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(hashString(preset)) + int64(variant+1)*0x5851F42D))
	for _, rp := range d.RPs {
		luts := int(math.Round(float64(rp.Resources[fpga.LUT]) * (0.97 + 0.04*rng.Float64())))
		rp.Resources[fpga.LUT] = luts
		rp.Content.Cost[fpga.LUT] = luts
	}
	return d, nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
