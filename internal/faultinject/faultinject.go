// Package faultinject is a deterministic, seed-driven fault-injection
// layer for both halves of the reproduction. A Plan names the
// operations that must fail — in the simulated runtime, NoC transfers,
// decoupler engage and disengage, ICAP programming, bitstream fetch
// corruption, kernel execution and configuration-memory upsets; in the
// compile-time flow, synthesis, floorplanning, place-and-route,
// bitstream generation and DRC — either at exact occurrence indices
// (deterministic rules) or at a seeded probability per occurrence
// (rate rules). One Injector evaluates every plan, and the op decides
// how a rule counts and draws: in the simulation engine's reproducible
// event order, or per site where checks arrive from concurrent flow
// jobs or per tile. Either way the same plan against the same workload
// injects the same faults on every run, which is what makes error-path
// behaviour testable at all: a failure you cannot replay is a failure
// you cannot regression-test.
//
// The package is dependency-free by design; each layer
// (internal/noc, internal/reconfig, internal/vivado) adapts its own
// operations onto Injector.Check sites.
package faultinject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// Op identifies one class of injectable operation. The op, never the
// caller, decides how a rule counts occurrences and draws its rate (see
// Injector): stream ops are reported by the single-threaded simulation
// engine in event order, per-site ops by concurrent flow jobs or per
// tile, where only a site's own history is reproducible.
type Op int

const (
	// OpTransfer is a NoC packet transfer (any plane; rules select a
	// plane or endpoint tile through their site). A runtime stream op.
	OpTransfer Op = iota
	// OpDecouple is the decoupler engaging before reconfiguration. A
	// runtime stream op.
	OpDecouple
	// OpRecouple is the decoupler disengaging after reconfiguration. A
	// runtime stream op.
	OpRecouple
	// OpICAP is ICAP programming of a fetched bitstream. A runtime
	// stream op.
	OpICAP
	// OpFetchCRC corrupts a bitstream image during the DMA fetch; the
	// manager's CRC verification catches it before the ICAP does. A
	// runtime stream op.
	OpFetchCRC
	// OpKernel is accelerator kernel execution on a tile. A runtime
	// stream op.
	OpKernel
	// OpCADSynth is a (simulated) CAD synthesis run in the compile-time
	// flow, checked through vivado.FaultHook. CAD ops are per-site ops:
	// a rule's occurrence window applies independently at each site.
	OpCADSynth
	// OpCADFloorplan is the floorplanning step of the flow.
	OpCADFloorplan
	// OpCADImpl is a place-and-route run (static pre-route, serial or
	// in-context).
	OpCADImpl
	// OpCADBitgen is bitstream generation (full or partial).
	OpCADBitgen
	// OpCADDRC is the DFX design rule check on a partition.
	OpCADDRC
	// OpSEU is a configuration-memory single-event upset: a radiation-
	// induced bit flip in a tile's resident configuration image. SEU
	// occurrences are the runtime's periodic per-tile config-memory
	// sample ticks (reconfig.Config.SEUCheckInterval apart in virtual
	// time). It is the runtime's one per-site op, so each tile's upset
	// schedule is a pure function of (seed, rule, tile, tick) — never of
	// what other tiles or operations did first.
	OpSEU
	numOps
)

// ops is the op-class table: each op's ParsePlan name, which half of
// PR-ESP checks it, and how its rules count (see Injector.Check).
var ops = [numOps]struct {
	name string
	// cad: the compile-time flow checks the op; the runtime checks
	// every other op.
	cad bool
	// perSite: occurrences count per (rule, primary site) and rate
	// draws are a pure hash; otherwise they count per rule and draw
	// from the plan's stream.
	perSite bool
}{
	OpTransfer:     {"transfer", false, false},
	OpDecouple:     {"decouple", false, false},
	OpRecouple:     {"recouple", false, false},
	OpICAP:         {"icap", false, false},
	OpFetchCRC:     {"crc", false, false},
	OpKernel:       {"kernel", false, false},
	OpCADSynth:     {"synth", true, true},
	OpCADFloorplan: {"floorplan", true, true},
	OpCADImpl:      {"impl", true, true},
	OpCADBitgen:    {"bitgen", true, true},
	OpCADDRC:       {"drc", true, true},
	OpSEU:          {"seu", false, true},
}

// String names the operation the way ParsePlan spells it.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op-%d", int(o))
	}
	return ops[o].name
}

// ParseOp parses an operation name as spelled by Op.String.
func ParseOp(s string) (Op, error) {
	for o := Op(0); o < numOps; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown operation %q", s)
}

// Rule injects faults into one class of operation. A rule matches an
// operation when the Op is equal and Site is empty or equal to one of
// the sites the caller reports (plane name, tile name, accelerator
// name — whatever labels the layer attaches to the operation).
//
// Matching occurrences are numbered from zero — per rule for a stream
// op, per rule and primary site for a per-site op. The first After
// matches never fault. A deterministic rule (Rate == 0) then faults the
// next Count matches (Count < 0 means every later match — a
// persistent, stuck-at fault). A rate rule (Rate > 0) faults each later
// match with probability Rate, drawn from the plan's seed, stopping
// after Count injected faults (at that site, for a per-site op) when
// Count > 0.
type Rule struct {
	Op    Op
	Site  string
	After int
	Count int
	Rate  float64
}

// String renders the rule in ParsePlan syntax.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Op.String())
	if r.Site != "" {
		fmt.Fprintf(&b, "@%s", r.Site)
	}
	if r.Rate > 0 {
		fmt.Fprintf(&b, "=%g", r.Rate)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ":after=%d", r.After)
	}
	if r.Rate > 0 && r.Count != 0 || r.Rate == 0 && r.Count != 1 {
		fmt.Fprintf(&b, ":count=%d", r.Count)
	}
	return b.String()
}

func (r Rule) validate() error {
	if r.Op < 0 || r.Op >= numOps {
		return fmt.Errorf("faultinject: rule %s: unknown op", r)
	}
	if r.After < 0 {
		return fmt.Errorf("faultinject: rule %s: negative after", r)
	}
	if r.Rate < 0 || r.Rate > 1 {
		return fmt.Errorf("faultinject: rule %s: rate %g outside [0,1]", r, r.Rate)
	}
	if r.Rate == 0 && r.Count == 0 {
		// A zero-rate, zero-count rule can never fire. Spell out the fix
		// for the seu op, where the dead rule is an easy typo
		// ("seu@t0=0" instead of "seu@t0=0.01").
		if r.Op == OpSEU {
			return fmt.Errorf("faultinject: rule %s: seu rule with zero rate and no count injects no upsets; give it a rate (seu@t0=0.01) or a count (seu@t0:count=3)", r)
		}
		return fmt.Errorf("faultinject: rule %s: zero rate and no count — the rule never fires (set a rate or a count)", r)
	}
	return nil
}

// Plan is a reproducible fault schedule: a seed for the rate rules plus
// the rule list. The zero Plan injects nothing.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Validate checks every rule.
func (p *Plan) Validate() error {
	for _, r := range p.Rules {
		if err := r.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ForFlow returns an error naming the first rule for a runtime op,
// which the compile-time flow never checks. A nil plan has none.
func (p *Plan) ForFlow() error { return p.only(true, "the CAD flow") }

// ForRuntime returns an error naming the first rule for a CAD op, which
// the simulated runtime never checks. A nil plan has none.
func (p *Plan) ForRuntime() error { return p.only(false, "the runtime") }

func (p *Plan) only(cad bool, checker string) error {
	if p == nil {
		return nil
	}
	for _, r := range p.Rules {
		if ops[r.Op].cad != cad {
			var names []string
			for o := Op(0); o < numOps; o++ {
				if ops[o].cad == cad {
					names = append(names, o.String())
				}
			}
			return fmt.Errorf("faultinject: rule %s: %s never checks %s operations; it checks %s", r, checker, r.Op, strings.Join(names, ", "))
		}
	}
	return nil
}

// String renders the plan in ParsePlan syntax.
func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Rules)+1)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, r := range p.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// Fault is the error an injected failure surfaces as. Layers propagate
// it unwrapped so callers can recognize injected faults with As.
type Fault struct {
	// Op and Site identify the faulted operation.
	Op   Op
	Site string
	// Seq numbers the fault from 1. For a stream op it is the ordinal
	// among the injector's stream-op faults; for a per-site op, the
	// ordinal among the faults its rule fired at its primary site. So
	// a per-site fault never renumbers a later stream-op fault.
	Seq int
	// Rule is the index of the plan rule that fired.
	Rule int
}

// Error implements error.
func (f *Fault) Error() string {
	site := f.Site
	if site == "" {
		site = "?"
	}
	return fmt.Sprintf("faultinject: injected %s fault at %s (fault #%d, rule %d)", f.Op, site, f.Seq, f.Rule)
}

// As reports whether err is (or wraps) an injected fault.
func As(err error) (*Fault, bool) {
	var f *Fault
	ok := errors.As(err, &f)
	return f, ok
}

// Injector evaluates a plan against the operations its callers report.
// It is safe for concurrent use. How a rule counts and draws follows
// from its op (see the ops table), never from the caller:
//
//   - Stream ops (transfer, decouple, recouple, icap, crc, kernel) are
//     reported by the single-threaded simulation engine, whose event
//     order is reproducible. A rule counts its matches in that order
//     and rate rules draw, on every match, the next value of the plan's
//     seeded splitmix64 stream.
//   - Per-site ops (the CAD ops and seu) count per (rule, primary
//     site), where the primary site is the first site the caller
//     reports, and a rate draw is a pure function of (seed, rule, site,
//     occurrence). The flow checks CAD ops from its worker pool, one
//     job per primary site, and the runtime samples seu per tile, so
//     each counter advances in an order no other site can change and
//     the injected faults are the same for any interleaving. The
//     consequence, documented in ParsePlan: a site-less rule such as
//     "synth:count=1" fails the first synthesis of every module.
//
// Per-site checks never consume the stream, so adding seu rules to a
// runtime plan leaves its stream-op faults as they were.
type Injector struct {
	plan Plan

	mu      sync.Mutex
	rng     splitmix64
	matches map[ruleSite]int
	fired   map[ruleSite]int
	// streamFaults numbers stream-op faults (Fault.Seq).
	streamFaults int
	injected     int
	perOp        [numOps]int
}

// ruleSite keys the occurrence counters: the rule and, for a per-site
// op, the primary site (empty for a stream op, whose rule counts every
// match).
type ruleSite struct {
	rule int
	site string
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	plan.Rules = append([]Rule(nil), plan.Rules...)
	return &Injector{
		plan:    plan,
		rng:     splitmix64(plan.Seed),
		matches: make(map[ruleSite]int),
		fired:   make(map[ruleSite]int),
	}, nil
}

// Check reports one occurrence of op at the given sites and returns the
// fault to inject, or nil. Every matching rule advances its occurrence
// counter, and a stream-op rate rule always consumes its draw, so the
// fault sequence depends only on the operations reported, not on which
// earlier rules fired. The first listed site labels the fault. A nil
// injector returns nil at once; Check is small enough to inline, so a
// fault-free run pays a pointer compare per check and takes no lock.
func (in *Injector) Check(op Op, sites ...string) error {
	if in == nil || op < 0 || op >= numOps {
		return nil
	}
	return in.check(op, sites)
}

func (in *Injector) check(op Op, sites []string) error {
	perSite := ops[op].perSite
	primary := firstSite(sites)
	in.mu.Lock()
	defer in.mu.Unlock()
	var fault *Fault
	for ri := range in.plan.Rules {
		r := &in.plan.Rules[ri]
		if r.Op != op || !siteMatches(r.Site, sites) {
			continue
		}
		k := ruleSite{rule: ri}
		if perSite {
			k.site = primary
		}
		n := in.matches[k]
		in.matches[k]++
		if n < r.After {
			continue
		}
		if r.Rate > 0 {
			if in.draw(perSite, k, n) >= r.Rate || r.Count > 0 && in.fired[k] >= r.Count {
				continue
			}
		} else if r.Count >= 0 && n >= r.After+r.Count {
			continue
		}
		in.fired[k]++
		if fault == nil {
			in.injected++
			in.perOp[op]++
			seq := in.fired[k]
			if !perSite {
				in.streamFaults++
				seq = in.streamFaults
			}
			fault = &Fault{Op: op, Site: primary, Seq: seq, Rule: ri}
		}
	}
	if fault == nil {
		return nil
	}
	return fault
}

// Injected returns the total number of faults delivered so far.
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// InjectedBy returns the number of faults delivered for one operation
// class.
func (in *Injector) InjectedBy(op Op) int {
	if in == nil || op < 0 || op >= numOps {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.perOp[op]
}

func siteMatches(want string, sites []string) bool {
	if want == "" {
		return true
	}
	for _, s := range sites {
		if s == want {
			return true
		}
	}
	return false
}

func firstSite(sites []string) string {
	if len(sites) == 0 {
		return ""
	}
	return sites[0]
}

// draw returns a uniform float64 in [0,1) for occurrence n of the rule
// and site in k. A stream op's draw is the plan stream's next value; a
// per-site op's depends only on the seed, the rule, the site and n —
// never on how many draws other sites consumed first.
func (in *Injector) draw(perSite bool, k ruleSite, n int) float64 {
	if !perSite {
		return unit(in.rng.next())
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.plan.Seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(k.rule))
	h.Write(buf[:])
	h.Write([]byte(k.site))
	h.Write([]byte{0xff})
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	s := splitmix64(h.Sum64())
	return unit(s.next())
}

// unit maps a 64-bit value to a float64 in [0,1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// splitmix64 is the same tiny deterministic PRNG the bitstream
// generator uses: no math/rand dependency, so injected fault sequences
// are reproducible across Go versions.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
