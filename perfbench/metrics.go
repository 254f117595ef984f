package main

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; the package test holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced metrics a user of the system sees. Every
// time is host time net of hypervisor steal (steal.go).
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"retained_heap_mb", "MB"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
}

// perLayerDef is a per-layer metric and the workload it is measured on:
// the one that loads the layer and whose end-to-end metrics it should
// move (README.md gives the map). An empty home means the workload the
// run was asked for.
type perLayerDef struct {
	name, unit, home string
}

const (
	homeFlow    = "flow-cold"
	homeServe   = "serve-mixed"
	homeRuntime = "runtime-wami"
)

// perLayer are the traced run's layer metrics. Times are host
// milliseconds: "per run" means per flow execution (one flow-cold op,
// one server flight).
var perLayer = []perLayerDef{
	{"flow.run_ms", "ms", homeFlow},
	{"flow.self_ms", "ms", homeServe},
	{"flow.busy_frac", "ratio", homeFlow},
	{"flow.jobs_executed", "count", homeServe},
	{"flow.jobs_skipped", "count", homeServe},
	{"flow.skip_ratio", "ratio", homeServe},

	{"vivado.synth_ms", "ms", homeFlow},
	{"vivado.impl_ms", "ms", homeFlow},
	{"vivado.ckpt_hit_ratio", "ratio", homeServe},
	{"vivado.ckpt_evictions", "count", homeServe},
	{"vivado.stage_hit_ratio", "ratio", homeServe},
	{"vivado.stage_entries", "count", homeServe},
	{"vivado.disk_hits", "count", homeServe},
	{"vivado.disk_writes", "count", homeServe},
	{"vivado.disk_load_ms", "ms", homeServe},
	{"vivado.disk_store_ms", "ms", homeServe},

	{"bitstream.bitgen_ms", "ms", homeFlow},
	{"bitstream.verify_ms", "ms", homeRuntime},
	{"bitstream.images", "count", homeFlow},
	{"bitstream.bytes_out", "bytes", homeFlow},
	{"bitstream.ratio", "ratio", homeFlow},

	{"floorplan.ms", "ms", homeFlow},

	{"server.http_ms", "ms", homeServe},
	{"server.queue_ms", "ms", homeServe},
	{"server.run_ms", "ms", homeServe},
	{"server.deduped", "count", homeServe},
	{"server.rejected", "count", homeServe},

	{"reconfig.self_ms_per_frame", "ms", homeRuntime},
	{"reconfig.register_ms", "ms", homeRuntime},
	{"reconfig.reconfigs", "count", homeRuntime},
	{"reconfig.invocations", "count", homeRuntime},
	{"reconfig.cpu_fallbacks", "count", homeRuntime},
	{"reconfig.bytes_configured", "bytes", homeRuntime},

	{"accel.kernel_ms_per_frame", "ms", homeRuntime},
	{"accel.calls", "count", homeRuntime},

	{"noc.packets", "count", homeRuntime},
	{"noc.flits_total", "count", homeRuntime},
	{"noc.flits_dma", "count", homeRuntime},

	{"go.gc_cpu_frac", "ratio", ""},
	{"host.steal_frac", "ratio", ""},
	{"trace.overhead_pct", "%", ""},
}
