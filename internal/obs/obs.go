// Package obs is the platform's lightweight observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms with a
// stable snapshot API and expvar-style JSON export), a span-based
// tracer that exports Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), and pprof hooks for the long-running CLIs.
//
// The design rule throughout is that observation must never perturb
// results: every instrument method is a no-op on a nil receiver, so
// instrumented code resolves its instruments once and calls them
// unconditionally — with no Observer attached the whole layer costs a
// nil check per probe and allocates nothing. Spans carry timestamps;
// nothing an instrument records ever feeds back into the code under
// observation, so traced flow runs stay byte-identical to untraced
// ones at any worker count (the determinism suite holds the engine to
// that).
//
// See DESIGN.md §12 for the architecture, the metric name catalogue
// and the trace-event schema.
package obs

// Observer bundles one metrics registry with one tracer — the handle
// the flow engine (flow.Options.Observer) and the runtime
// (reconfig.Config.Observer) accept. A nil *Observer disables all
// observation at no cost.
type Observer struct {
	reg *Registry
	tr  *Tracer
}

// New returns an Observer with a fresh registry and tracer.
func New() *Observer {
	return &Observer{reg: NewRegistry(), tr: NewTracer()}
}

// Scoped returns an observer that shares o's metrics registry and
// trace but writes its trace events on lanes laneBase+tid, with tags
// added to the args of every span and instant. Concurrent runs of one
// instrumented component, each given its own lane block, then never
// share a lane, and every span says which run it belongs to. A nil o
// returns nil.
func (o *Observer) Scoped(laneBase int, tags map[string]any) *Observer {
	if o == nil {
		return nil
	}
	return &Observer{reg: o.reg, tr: o.tr.scoped(laneBase, tags)}
}

// Metrics returns the observer's registry (nil for a nil observer; a
// nil Registry hands out nil instruments whose methods no-op).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the observer's tracer (nil for a nil observer; every
// method of a nil Tracer no-ops).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}
