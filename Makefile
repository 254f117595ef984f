# PR-ESP build/test targets.
#
# `make ci` is the gate every change must pass: vet (of the root module
# and of the nested perfbench module), static analysis (when staticcheck
# is installed), build, the tier-1 unit suite, the perfbench module's
# own tests, and the
# same suite under the race detector — the flow engine executes its job
# graphs on a goroutine worker pool, so the race run is a permanent part
# of the check, not an optional extra.

GO ?= go
# Explicit per-package timeout: a wedged scheduler or leaked goroutine
# must fail the suite, not hang CI.
TEST_TIMEOUT ?= 5m

.PHONY: ci vet perfbench-vet perfbench-test staticcheck build test race bench bench-smoke fuzz fuzz-smoke serve-smoke chaos-smoke loc

ci: vet perfbench-vet staticcheck build test perfbench-test race fuzz-smoke chaos-smoke bench-smoke serve-smoke

vet:
	$(GO) vet ./...

# perfbench is its own module, so `./...` at the root neither builds
# nor vets it; this step catches a root API change that breaks the
# benchmark harness.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# The benchmark harness's own tests: every workload runs briefly against
# its golden digests and declared metrics, so a root change that breaks
# a workload fails here rather than only when the benchmark is run.
perfbench-test:
	cd perfbench && $(GO) test -timeout $(TEST_TIMEOUT) ./...

# staticcheck runs when the binary is on PATH; the sandbox image has no
# network access to install it, so its absence is a skip, not a failure.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-sibling) execution order:
# any test that leans on a neighbour's side effects fails loudly here
# instead of rotting silently. Failures print the shuffle seed for
# reproduction.
test:
	$(GO) test -shuffle=on -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# Reproduce the paper's tables/figures and the cache speedup numbers.
bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration smoke pass over the flow benchmarks, part of `make ci`:
# the cold/warm strategy sweeps over a fresh or shared checkpoint cache,
# the observed/nil-observer flow pair (the check that instrumentation
# costs nothing when disabled) and the incremental cold/warm/edit legs
# (the stage-artifact cache's win on unchanged and one-kernel-edit
# reruns) and the scheduler's own overhead on SOC_2's job graph with
# no-op jobs, at 1 and 2 workers. The stage-key derivation follows at
# 1000 iterations: BenchmarkStageKeys on SOC_1 and SOC_2, a fresh design
# (derived every run) against a frozen one (the memoised lookup a
# served preset gets). The store layer's memory-tier hits follow at
# 1000 iterations too: BenchmarkCheckpointHit (a keyed warm synthesis)
# and BenchmarkStageHit (a cached floorplan's lookup), each tens of
# nanoseconds. The disk tier's store and load of a
# VC707 full-image artifact (a load regenerates the image from its
# recipe and verifies it) and of a floorplan artifact join them at 10
# iterations, and a warm flow-service submit (an in-process HTTP submit
# and GET of a spec whose stages are all cached) at 500 on one CPU: on
# two, the hand-off to the server's worker goroutine moves ns/op by
# ±20% between runs. The bitstream layer's own
# benchmarks (partial and full-device generation on the VC707 and VCU118
# geometries) follow at 10 iterations, so the first call's encoder
# scratch allocation does not stand for the steady state. The WAMI
# runtime layers follow: every accelerator kernel on a 128-px frame and
# frame synthesis at 2000 iterations (tens to hundreds of microseconds
# each, so ten would time mostly the cold start), and a 16-frame batch
# on each runtime SoC at 10. The reconfiguration manager's swap and invoke paths close the
# list at 1000 iterations (one fault-free swap or invocation takes
# microseconds of host time, so ten would time little but the timer),
# reporting reconfigs/s and invocations/s. The
# parsed results land in BENCH_flow.json, BENCH_bitstream.json,
# BENCH_wami.json and BENCH_reconfig.json for diffing across changes;
# these numbers are smoke-level, not statistics.
#
# Two gates ride along. A fully cached rerun must cost at most a fifth
# of the cold run that populates the cache: the gate compares the
# medians of five 10-iteration runs of the incremental cold and warm
# benchmarks, so it holds on any host speed. And a 16-frame batch on
# each runtime SoC must allocate less than 2,097,152 B/op, one fresh
# 128-px image per frame, read from the run that writes
# BENCH_wami.json: the runner hands its kernel planes back to the WAMI
# free list, and a plane that stops coming back shows up here.
bench-smoke:
	{ $(GO) test -run='^$$' -bench='^Benchmark(EvaluateStrategy(Cold|Warm)|RunPRESP(NilObserver|Observed|Incremental(Cold|Warm|Edit))|SchedulerNoop)$$' \
		-benchtime=1x -benchmem -timeout $(TEST_TIMEOUT) ./internal/flow/ && \
	  $(GO) test -run='^$$' -bench='^BenchmarkStageKeys$$' \
		-benchtime=1000x -benchmem -timeout $(TEST_TIMEOUT) ./internal/flow/ && \
	  $(GO) test -run='^$$' -bench='^Benchmark(CheckpointHit|StageHit)$$' \
		-benchtime=1000x -benchmem -timeout $(TEST_TIMEOUT) ./internal/vivado/ && \
	  $(GO) test -run='^$$' -bench='^BenchmarkDiskStore$$' \
		-benchtime=10x -benchmem -timeout $(TEST_TIMEOUT) ./internal/vivado/ && \
	  $(GO) test -run='^$$' -bench='^BenchmarkSubmitWarm$$' \
		-benchtime=500x -cpu=1 -benchmem -timeout $(TEST_TIMEOUT) ./internal/server/; } \
		| $(GO) run ./cmd/presp-benchjson > BENCH_flow.json
	@cat BENCH_flow.json
	$(GO) test -run='^$$' -bench='^BenchmarkRunPRESPIncremental(Cold|Warm)$$' \
		-benchtime=10x -count=5 -timeout $(TEST_TIMEOUT) ./internal/flow/ \
		| awk '$$1 ~ /^BenchmarkRunPRESPIncremental(Cold|Warm)(-[0-9]+)?$$/ { \
			k = ($$1 ~ /Cold/) ? "cold" : "warm"; v[k, ++n[k]] = $$3 } \
		function median(k,   i, j, t, a) { \
			for (i = 1; i <= n[k]; i++) a[i] = v[k, i]; \
			for (i = 2; i <= n[k]; i++) { t = a[i]; \
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
			return n[k] % 2 ? a[(n[k] + 1) / 2] : (a[n[k] / 2] + a[n[k] / 2 + 1]) / 2 } \
		END { \
			if (n["cold"] != 5 || n["warm"] != 5) { print "cache-inversion gate: benchmarks did not run"; exit 1 } \
			c = median("cold"); w = median("warm"); \
			printf "cache-inversion gate: warm median %.0f ns/op, cold median %.0f ns/op, ratio %.4f (limit 0.2)\n", w, c, w / c; \
			if (w * 5 > c) { print "cache-inversion gate: FAIL"; exit 1 } }'
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate(Partial|Full)$$' \
		-benchtime=10x -benchmem -timeout $(TEST_TIMEOUT) ./internal/bitstream/ \
		| $(GO) run ./cmd/presp-benchjson > BENCH_bitstream.json
	@cat BENCH_bitstream.json
	{ $(GO) test -run='^$$' -bench='^Benchmark(WAMIKernel|FrameSourceNext)$$' \
		-benchtime=2000x -benchmem -timeout $(TEST_TIMEOUT) ./internal/wami/ && \
	  $(GO) test -run='^$$' -bench='^BenchmarkProcessFrames$$' \
		-benchtime=10x -benchmem -timeout $(TEST_TIMEOUT) ./internal/wami/; } \
		| $(GO) run ./cmd/presp-benchjson > BENCH_wami.json
	@cat BENCH_wami.json
	@awk -F'[:,]' ' \
		/"name": "BenchmarkProcessFrames\// { name = $$2; gsub(/[ "]/, "", name) } \
		/"bytes_per_op"/ && name != "" { b = $$2 + 0; n++; \
			printf "alloc gate: %s %d B/op (limit 2097152)\n", name, b; \
			if (b >= 2097152) bad = 1; name = "" } \
		END { \
			if (n == 0) { print "alloc gate: ProcessFrames benchmarks did not run"; exit 1 } \
			if (bad) { print "alloc gate: FAIL"; exit 1 } }' BENCH_wami.json
	$(GO) test -run='^$$' -bench='^Benchmark(Reconfigure|Invoke)$$' \
		-benchtime=1000x -benchmem -timeout $(TEST_TIMEOUT) ./internal/reconfig/ \
		| $(GO) run ./cmd/presp-benchjson > BENCH_reconfig.json
	@cat BENCH_reconfig.json

# Boot check for the flow-as-a-service daemon, part of `make ci`: build
# presp-served, bind an ephemeral port, push one real job through the
# HTTP API (submit, poll, /metrics), then drain gracefully. The second
# invocation adds the persistence leg: with -cache-dir, the smoke run
# kills the daemon and restarts it against the same cache directory,
# asserting the identical spec warm-starts from disk (cache_disk_hits
# >= 1, zero synthesis misses, byte-identical bitstream CRCs). The third
# runs the same leg with -state-dir alone: the restarted daemon recovers
# its WAL and warm-starts from the checkpoint tier under the state dir.
serve-smoke:
	$(GO) run ./cmd/presp-served -smoke
	$(GO) run ./cmd/presp-served -smoke -cache-dir "$$(mktemp -d /tmp/presp-serve-smoke.XXXXXX)"
	$(GO) run ./cmd/presp-served -smoke -state-dir "$$(mktemp -d /tmp/presp-serve-smoke.XXXXXX)"

# Longer fuzz session for the scheduler property suite.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzSchedulerExecute -fuzztime=30s ./internal/flow/

# Short fuzz pass over the property suites, part of `make ci`: the
# scheduler executor, the reconfiguration fault-plan harness (any plan
# must leave the tile un-wedged and two runs byte-identical), the CAD
# fault-plan parser/injector (arbitrary plans parse or reject cleanly,
# and the injected fault set is interleaving-independent), the
# disk-tier read path (any mutation of a persisted checkpoint or stage
# artifact must fail the CRC check — corruption is quarantined, never
# decoded — and any CRC-valid body under a bitstream key regenerates an
# image that reproduces its checksum or is a counted miss, within a
# bounded allocation), and the bitstream codec (the reference RLE round trip, the
# bounded decoder on arbitrary streams, and the fused generator against
# the reference encoding), and the WAMI kernels and frame synthesis
# against the reference implementations they replaced (bit-identical
# outputs for any size, pixels and warp), and the two external JSON
# parsers (a SoC configuration is accepted only if it round-trips
# through json.Marshal; any submit body through the HTTP handler gets a
# documented status, errors in the error envelope, never a 500).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzSchedulerExecute -fuzztime=5s ./internal/flow/
	$(GO) test -run=^$$ -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/reconfig/
	$(GO) test -run=^$$ -fuzz=FuzzCADFaultPlan -fuzztime=5s ./internal/faultinject/
	$(GO) test -run=^$$ -fuzz=FuzzDiskEntry -fuzztime=5s ./internal/vivado/
	$(GO) test -run=^$$ -fuzz=FuzzArtifactRecipe -fuzztime=5s ./internal/vivado/
	$(GO) test -run=^$$ -fuzz=FuzzWALRecord -fuzztime=5s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzRLE -fuzztime=5s ./internal/bitstream/
	$(GO) test -run=^$$ -fuzz=FuzzFusedEncoder -fuzztime=5s ./internal/bitstream/
	$(GO) test -run=^$$ -fuzz=FuzzKernelsMatchReference -fuzztime=5s ./internal/wami/
	$(GO) test -run=^$$ -fuzz=FuzzParseConfig -fuzztime=5s ./internal/socgen/
	$(GO) test -run=^$$ -fuzz=FuzzSubmitBody -fuzztime=5s ./internal/server/

# Crash battery for the durable job layer, part of `make ci`: replay the
# job WAL truncated at every record boundary (plus a torn tail), kill -9
# a real daemon child mid-flow and after admission, and recover — zero
# lost or duplicated jobs, byte-identical bitstream CRCs, watchdog and
# breaker semantics under the race detector. The scrub soak leg rides
# along: a rotating accelerator workload under a sustained SEU storm in
# which every invocation must return correct results while the readback
# scrubber detects and repairs behind it.
chaos-smoke:
	$(GO) test -race -count=1 -timeout $(TEST_TIMEOUT) \
		-run 'TestWAL|TestCrash|TestKill9|TestRecover|TestWatchdog|TestBreaker' \
		./internal/server/
	$(GO) test -race -count=1 -timeout $(TEST_TIMEOUT) \
		-run 'TestScrubSoak' ./internal/reconfig/

# The two design-quality numbers the ROADMAP tracks: production LOC
# (non-test .go files outside perfbench/) and the line count of the
# exported-API listing. Not part of `make ci`.
loc:
	@echo "production LOC: $$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)"
	@echo "api surface lines: $$(wc -l < testdata/api_surface.golden)"
