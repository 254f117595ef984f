package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"presp/internal/experiments"
	"presp/internal/obs"
	"presp/internal/server"
	"presp/internal/vivado"
)

// serve-mixed: two closed-loop clients on two tenants drive server.New
// through Handler().ServeHTTP in process (no sockets), with two flow
// workers of one scheduler worker each, shared checkpoint and stage
// caches and a DiskStore tier in a fresh directory (the -cache-dir
// setting; no WAL, so fsync latency does not stand in for program
// time). Most jobs repeat a pool of specs primed during set-up and read
// the stage cache; a minority are specs never seen before and write
// through to the caches and the disk tier; a few submit one spec twice
// at once, which exercises dedup. The cache layers serve both reads and
// writes, so a gain for one use that costs the other shows; bitstream
// synthesis does little work here.

const (
	servePool = 8 // specs primed during set-up
	// Each block of serveBlock jobs holds serveCold cold specs and
	// serveDup duplicate pairs in a seeded order, the rest warm, so every
	// seed runs the same mix.
	serveBlock = 20
	serveCold  = 2
	serveDup   = 1
	// servePoll is the status poll interval; latency is read from the
	// server's FinishedAt, so the interval only delays the next submit.
	servePoll       = 2 * time.Millisecond
	serveJobTimeout = time.Minute
)

type opKind int

const (
	kindWarm opKind = iota
	kindCold
	kindDup
)

// specKey names a spec in golden.json.
func specKey(s server.Spec) string {
	return fmt.Sprintf("%s|%s|%s|%d|skip=%t", s.Preset, s.Flow, s.Strategy, s.Tau, s.SkipBitstreams)
}

// presetSpecs lists one preset's serve-mixed specs: strategies holds
// the PR-ESP flow with the chooser's strategy, serial, fully parallel and
// each semi-parallel τ the partition count admits; baselines holds the
// standard-DFX and monolithic flows; timingOnly repeats both lists as
// runs that stop after P&R. Every spec compresses its bitstreams, the
// paper's deployment setting; uncompressed images would make the caches
// hold gigabytes within one run. No spec carries a fault plan.
func presetSpecs(preset string) (strategies, baselines, timingOnly []server.Spec, err error) {
	d, err := presetDesign(preset)
	if err != nil {
		return nil, nil, nil, err
	}
	spec := func(flowName, strategy string, tau int, skip bool) server.Spec {
		return server.Spec{Preset: preset, Flow: flowName, Strategy: strategy, Tau: tau, Compress: true, SkipBitstreams: skip}
	}
	for _, skip := range []bool{false, true} {
		strat := []server.Spec{spec("presp", "", 0, skip), spec("presp", "serial", 0, skip), spec("presp", "fully", 0, skip)}
		for tau := 2; tau <= 4 && tau < len(d.RPs); tau++ {
			strat = append(strat, spec("presp", "semi", tau, skip))
		}
		base := []server.Spec{spec("standard-dfx", "", 0, skip), spec("monolithic", "", 0, skip)}
		if skip {
			timingOnly = append(strat, base...)
		} else {
			strategies, baselines = strat, base
		}
	}
	return strategies, baselines, timingOnly, nil
}

type serveMixed struct {
	e     *env
	dir   string
	store *vivado.DiskStore
	cache *vivado.CheckpointCache
	stage *vivado.StageCache
	srv   *server.Server
	h     http.Handler

	presets []string
	pool    []server.Spec   // per preset: the spec primed during set-up
	cold    [][]server.Spec // per preset: specs never submitted before

	since   int64
	reg0    flowCounters
	ckpt0   [2]int64 // checkpoint cache hits, misses at the end of set-up
	stage0  [2]int64
	disk0   vivado.DiskStats
	load0   obs.HistogramSnapshot
	store0  obs.HistogramSnapshot
	httpNS  atomic.Int64
	mu      sync.Mutex
	jobs    int
	flights int // jobs that led their flight
	queueMS float64
	runMS   float64
	deduped int
	refused int
}

func setupServeMixed(e *env) (instance, error) {
	// The pool holds each preset's PR-ESP spec with the chooser's
	// strategy. A preset's cold list holds its other strategies, then the
	// baselines, then the timing-only specs, in the same order for every
	// seed: the seed orders the job stream, and the k-th cold round runs
	// the same specs whatever the seed, so every seed caches the same
	// artifact volume.
	s := &serveMixed{e: e, presets: experiments.PresetNames()}
	for _, p := range s.presets {
		strat, base, timingOnly, err := presetSpecs(p)
		if err != nil {
			return nil, err
		}
		s.pool = append(s.pool, strat[0])
		s.cold = append(s.cold, append(append(strat[1:], base...), timingOnly...))
	}
	var err error
	if s.dir, err = os.MkdirTemp(e.dir, "serve-mixed-"); err != nil {
		return nil, err
	}
	if s.store, err = vivado.OpenDiskStore(s.dir); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.store.SetObserver(e.obs)
	s.cache = vivado.NewCheckpointCache()
	s.cache.SetDiskStore(s.store)
	s.stage = vivado.NewStageCache() // the server shares the cache's disk tier with it
	s.srv = server.New(server.Config{Workers: 2, JobWorkers: 1, Cache: s.cache, StageCache: s.stage, Observer: e.obs})
	s.h = s.srv.Handler()

	// Prime the pool: all specs queued at once, then each checked.
	ids := make([]string, len(s.pool))
	for k, spec := range s.pool {
		if ids[k], _, err = s.submit(0, spec); err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s: %w", specKey(spec), err)
		}
	}
	for k, spec := range s.pool {
		v, err := s.wait(0, ids[k])
		if err == nil {
			err = s.check(spec, v)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s: %w", specKey(spec), err)
		}
	}

	s.since = e.tracer().Now()
	s.reg0 = readFlowCounters(e.obs.Metrics())
	s.ckpt0[0], s.ckpt0[1] = s.cache.Stats()
	s.stage0[0], s.stage0[1] = s.stage.Stats()
	s.disk0 = s.store.Stats()
	s.load0, s.store0 = s.diskHistograms()
	return s, nil
}

// at maps stream index i to its kind and spec.
func (s *serveMixed) at(i int) (opKind, server.Spec) {
	block, pos := i/serveBlock, i%serveBlock
	kinds := make([]opKind, serveBlock)
	for k := range kinds {
		switch {
		case k < serveCold:
			kinds[k] = kindCold
		case k < serveCold+serveDup:
			kinds[k] = kindDup
		}
	}
	rng := rand.New(rand.NewSource(s.e.seed*7_919 + int64(block)))
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	before := map[opKind]int{}
	for _, k := range kinds[:pos] {
		before[k]++
	}
	// Cold and warm jobs visit the presets in seeded rounds, one job per
	// preset per round; a cold job takes its preset's next unseen spec.
	visit := func(n int, salt int64) int {
		order := rand.New(rand.NewSource(s.e.seed*salt + int64(n/len(s.presets)))).Perm(len(s.presets))
		return order[n%len(s.presets)]
	}
	switch kind := kinds[pos]; kind {
	case kindCold:
		c := block*serveCold + before[kindCold]
		p := visit(c, 7_727)
		if round := c / len(s.presets); round < len(s.cold[p]) {
			return kindCold, s.cold[p][round]
		}
		// The preset's unseen specs are used up (a very fast program):
		// the job repeats its pool spec warm.
		return kindWarm, s.pool[p]
	case kindDup:
		return kindDup, s.pool[rng.Intn(len(s.pool))]
	default:
		w := block*(serveBlock-serveCold-serveDup) + before[kindWarm]
		return kindWarm, s.pool[visit(w, 104_729)]
	}
}

func (s *serveMixed) op(c, i int) []outcome {
	kind, spec := s.at(i)
	n := 1
	if kind == kindDup {
		n = 2 // the same spec twice, back to back, before either finishes
	}
	ids := make([]string, n)
	starts := make([]time.Time, n)
	outs := make([]outcome, n)
	for k := range ids {
		var err error
		if ids[k], starts[k], err = s.submit(c, spec); err != nil {
			outs[k].err = err
		}
	}
	for k := range ids {
		if outs[k].err != nil {
			continue
		}
		v, err := s.wait(c, ids[k])
		if err != nil {
			outs[k].err = err
			continue
		}
		fin, err := time.Parse(time.RFC3339Nano, v.FinishedAt)
		if err != nil {
			outs[k].err = fmt.Errorf("job %s: finished_at: %w", v.ID, err)
			continue
		}
		outs[k].ms = float64(fin.Sub(starts[k]).Nanoseconds()) / 1e6
		s.tally(v)
		if err := s.check(spec, v); err != nil {
			outs[k].err = err
			continue
		}
		outs[k].digest = specKey(spec) + "=" + resultDigest(v.Result.TotalMin, v.Result.BitstreamCRCs)
	}
	return outs
}

// check holds a finished job to its spec's reference: it must have
// succeeded, and its bitstream CRCs and modelled total must match the
// cold run recorded in golden.json, warm reruns included.
func (s *serveMixed) check(spec server.Spec, v server.JobView) error {
	if v.State != server.StateSucceeded || v.Result == nil {
		return fmt.Errorf("job %s (%s): state %s: %s", v.ID, specKey(spec), v.State, v.Error)
	}
	got := resultDigest(v.Result.TotalMin, v.Result.BitstreamCRCs)
	if want := s.e.golden.Specs[specKey(spec)]; got != want {
		return mismatch("%s: digest %s, reference %q", specKey(spec), got, want)
	}
	return nil
}

func (s *serveMixed) tally(v server.JobView) {
	sub, err1 := time.Parse(time.RFC3339Nano, v.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, v.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, v.FinishedAt)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs++
	if v.Deduplicated {
		// A follower joins a flight that may already run: its start
		// precedes its submission, so it has no queue or run time.
		s.deduped++
		return
	}
	if err1 == nil && err2 == nil && err3 == nil {
		s.flights++
		s.queueMS += float64(start.Sub(sub).Nanoseconds()) / 1e6
		s.runMS += float64(fin.Sub(start).Nanoseconds()) / 1e6
	}
}

func tenant(c int) string { return fmt.Sprintf("tenant-%d", c) }

// serve calls the handler in process, inside a server.http span.
func (s *serveMixed) serve(c int, req *http.Request) *httptest.ResponseRecorder {
	req.Header.Set("X-Tenant", tenant(c))
	rec := httptest.NewRecorder()
	end := s.e.span("server.http", benchLane(c))
	t0 := time.Now()
	s.h.ServeHTTP(rec, req)
	s.httpNS.Add(time.Since(t0).Nanoseconds())
	end()
	return rec
}

// submit POSTs spec and returns the job ID and the time the call began.
func (s *serveMixed) submit(c int, spec server.Spec) (string, time.Time, error) {
	t0 := time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		return "", t0, err
	}
	rec := s.serve(c, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		s.mu.Lock()
		s.refused++
		s.mu.Unlock()
		return "", t0, fmt.Errorf("submit %s: HTTP %d: %s", specKey(spec), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var v server.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return "", t0, fmt.Errorf("submit %s: %w", specKey(spec), err)
	}
	return v.ID, t0, nil
}

// wait polls the job until it reaches a terminal state, or fails it
// after serveJobTimeout so a wedged server cannot hang the benchmark.
func (s *serveMixed) wait(c int, id string) (server.JobView, error) {
	deadline := time.Now().Add(serveJobTimeout)
	for {
		rec := s.serve(c, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		var v server.JobView
		if rec.Code != http.StatusOK {
			return v, fmt.Errorf("get job %s: HTTP %d", id, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return v, fmt.Errorf("get job %s: %w", id, err)
		}
		switch v.State {
		case server.StateQueued, server.StateRunning:
			if time.Now().After(deadline) {
				return v, fmt.Errorf("job %s still %s after %v", id, v.State, serveJobTimeout)
			}
			time.Sleep(servePoll)
		default:
			return v, nil
		}
	}
}

func (s *serveMixed) diskHistograms() (load, store obs.HistogramSnapshot) {
	snap := s.e.obs.Metrics().Snapshot()
	return snap.Histograms["cache_disk_load_ms"], snap.Histograms["cache_disk_store_ms"]
}

func (s *serveMixed) layers(ev []obs.Event, set func(string, float64)) {
	flights := spansNamed(ev, s.since, "server", "flight/")
	jobs := spansNamed(ev, s.since, "job", "")
	flowLayers(set, flights, jobs, 1, readFlowCounters(s.e.obs.Metrics()).minus(s.reg0))

	h, m := s.cache.Stats()
	set("vivado.ckpt_hit_ratio", ratio(h-s.ckpt0[0], h-s.ckpt0[0]+m-s.ckpt0[1]))
	set("vivado.ckpt_evictions", float64(s.cache.Evictions()))
	h, m = s.stage.Stats()
	set("vivado.stage_hit_ratio", ratio(h-s.stage0[0], h-s.stage0[0]+m-s.stage0[1]))
	set("vivado.stage_entries", float64(s.stage.Len()))
	ds := s.store.Stats()
	set("vivado.disk_hits", float64(ds.Hits-s.disk0.Hits))
	set("vivado.disk_writes", float64(ds.Writes-s.disk0.Writes))
	load, store := s.diskHistograms()
	set("vivado.disk_load_ms", histMean(load, s.load0))
	set("vivado.disk_store_ms", histMean(store, s.store0))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs > 0 {
		set("server.http_ms", float64(s.httpNS.Load())/1e6/float64(s.jobs))
	}
	if s.flights > 0 {
		set("server.queue_ms", s.queueMS/float64(s.flights))
		set("server.run_ms", s.runMS/float64(s.flights))
	}
	set("server.deduped", float64(s.deduped))
	set("server.rejected", float64(s.refused))
}

// histMean is the mean of the observations a histogram gained since
// base. Its sum is exact, where bucket counts would only bound a
// percentile.
func histMean(h, base obs.HistogramSnapshot) float64 {
	if n := h.Count - base.Count; n > 0 {
		return (h.Sum - base.Sum) / float64(n)
	}
	return 0
}

func (s *serveMixed) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}
