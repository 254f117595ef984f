// Package noc models the ESP network-on-chip: a packet-switched 2D mesh
// with multiple physical planes, XY dimension-ordered routing and
// wormhole switching. The model is link-reservation based: every
// directed link tracks when it becomes free, so concurrent transfers
// contend for bandwidth exactly where their paths overlap, while the
// common no-contention case stays O(hops) per transfer.
//
// The reconfigurable tile's decoupler (Section III of the paper) is
// modelled by per-tile port gating: while a tile is decoupled, the
// inputs to its NoC queues are disabled and transfers touching it fail.
package noc

import (
	"fmt"
	"strings"

	"presp/internal/obs"
	"presp/internal/sim"
)

// Coord addresses a tile in the mesh.
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Plane identifies one physical NoC plane. ESP instantiates six planes;
// the ones relevant to this model are named below.
type Plane int

const (
	// PlaneMemReq carries DMA/memory requests.
	PlaneMemReq Plane = iota
	// PlaneMemRsp carries DMA/memory responses.
	PlaneMemRsp
	// PlaneConfig carries memory-mapped register traffic.
	PlaneConfig
	// PlaneInterrupt carries interrupt packets.
	PlaneInterrupt
	// PlaneCoherence carries coherence traffic (unused by accelerators
	// in the non-coherent DMA mode modelled here, but instantiated).
	PlaneCoherence
	// PlaneDMA carries the bitstream-fetch DMA issued by the DFX
	// controller in the auxiliary tile.
	PlaneDMA
	// NumPlanes is the ESP physical plane count.
	NumPlanes
)

// String names the plane.
func (p Plane) String() string {
	switch p {
	case PlaneMemReq:
		return "mem-req"
	case PlaneMemRsp:
		return "mem-rsp"
	case PlaneConfig:
		return "config"
	case PlaneInterrupt:
		return "interrupt"
	case PlaneCoherence:
		return "coherence"
	case PlaneDMA:
		return "dma"
	default:
		return fmt.Sprintf("plane-%d", int(p))
	}
}

type linkKey struct {
	plane    Plane
	from, to Coord
}

type link struct {
	freeAt sim.Time
	flits  int64
}

// The router's fixed parameters; every mesh has NumPlanes planes.
const (
	// flitBytes is the payload bytes per flit (ESP planes are 64-bit).
	flitBytes = 8
	// routerLatencyCycles is the per-hop router pipeline latency.
	routerLatencyCycles = 2
)

// Config carries the mesh parameters.
type Config struct {
	Cols, Rows int
	// FreqHz is the NoC clock. The paper's SoCs run the fabric at 78 MHz.
	FreqHz float64
}

// FaultHook lets a fault-injection layer veto NoC operations. Each
// method is consulted before the operation takes effect and returns
// the error to inject, or nil to let the operation proceed. Hooks see
// every operation in simulation order, so a deterministic hook yields
// a deterministic fault schedule.
type FaultHook interface {
	// TransferFault is consulted once per Transfer, after validation
	// and gating checks but before any link is reserved.
	TransferFault(p Plane, src, dst Coord) error
	// DecoupleFault is consulted before the decoupler engages.
	DecoupleFault(c Coord) error
	// RecoupleFault is consulted before the decoupler disengages. A
	// fault here models a stuck decoupler; recovery paths bypass it
	// with ResetTile.
	RecoupleFault(c Coord) error
}

// Network is the mesh instance.
type Network struct {
	cfg     Config
	eng     *sim.Engine
	links   map[linkKey]*link
	gated   map[Coord]bool
	faults  FaultHook
	packets int64

	// Per-plane observability counters, resolved once by SetObserver
	// (nil slices without an observer — Transfer guards on that).
	mTransfers []*obs.Counter
	mFlits     []*obs.Counter
}

// SetObserver attaches an observability handle: every successful
// Transfer counts one packet and its flits on per-plane counters
// (noc_transfers_total_<plane>, noc_flits_total_<plane>). A nil
// observer detaches at no cost; observation never changes timing.
func (n *Network) SetObserver(o *obs.Observer) {
	reg := o.Metrics()
	if reg == nil {
		n.mTransfers, n.mFlits = nil, nil
		return
	}
	n.mTransfers = make([]*obs.Counter, NumPlanes)
	n.mFlits = make([]*obs.Counter, NumPlanes)
	for p := Plane(0); p < NumPlanes; p++ {
		name := strings.ReplaceAll(p.String(), "-", "_")
		n.mTransfers[p] = reg.Counter("noc_transfers_total_" + name)
		n.mFlits[p] = reg.Counter("noc_flits_total_" + name)
	}
}

// New builds a mesh network bound to engine eng.
func New(eng *sim.Engine, cfg Config) (*Network, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.FreqHz <= 0 {
		cfg.FreqHz = 78e6
	}
	return &Network{
		cfg:   cfg,
		eng:   eng,
		links: make(map[linkKey]*link),
		gated: make(map[Coord]bool),
	}, nil
}

// Cols returns the mesh width.
func (n *Network) Cols() int { return n.cfg.Cols }

// Rows returns the mesh height.
func (n *Network) Rows() int { return n.cfg.Rows }

// Contains reports whether c addresses a tile inside the mesh.
func (n *Network) Contains(c Coord) bool {
	return c.X >= 0 && c.X < n.cfg.Cols && c.Y >= 0 && c.Y < n.cfg.Rows
}

// Route returns the XY dimension-ordered path from src to dst, inclusive
// of both endpoints.
func (n *Network) Route(src, dst Coord) ([]Coord, error) {
	if !n.Contains(src) || !n.Contains(dst) {
		return nil, fmt.Errorf("noc: route %s -> %s outside %dx%d mesh", src, dst, n.cfg.Cols, n.cfg.Rows)
	}
	path := []Coord{src}
	cur := src
	for cur.X != dst.X {
		if dst.X > cur.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		if dst.Y > cur.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path, nil
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook consulted by Transfer, Decouple and Recouple.
func (n *Network) SetFaultHook(h FaultHook) { n.faults = h }

// Decouple gates the NoC queues of the tile at c, as the reconfigurable
// tile's decoupling logic does during partial reconfiguration.
// Decoupling an already-gated tile is idempotent: the decoupler is a
// level signal, not an edge, so asserting it twice is the same state
// (the fault hook is still consulted — a stuck decoupler faults every
// engage attempt, first or repeated).
func (n *Network) Decouple(c Coord) error {
	if !n.Contains(c) {
		return fmt.Errorf("noc: decouple %s outside mesh", c)
	}
	if n.faults != nil {
		if err := n.faults.DecoupleFault(c); err != nil {
			return err
		}
	}
	n.gated[c] = true
	return nil
}

// Recouple re-enables the NoC queues of the tile at c (with the queue
// reset the decoupler performs after a successful reconfiguration).
// Recoupling a tile that was never decoupled is likewise idempotent —
// the de-asserted level plus a queue reset of already-empty queues —
// so it returns nil rather than inventing an error the hardware does
// not have.
func (n *Network) Recouple(c Coord) error {
	if !n.Contains(c) {
		return fmt.Errorf("noc: recouple %s outside mesh", c)
	}
	if n.faults != nil {
		if err := n.faults.RecoupleFault(c); err != nil {
			return err
		}
	}
	delete(n.gated, c)
	return nil
}

// ResetTile force-disengages the decoupler at c, bypassing any fault
// hook — the PRC's dedicated reset line, which error recovery asserts
// when a normal disengage cannot be trusted. Unlike Decouple and
// Recouple it cannot fail (a reset line that could fail would be
// useless for recovery), but it validates the coord the same way: it
// reports whether a gated tile inside the mesh was actually reset, so
// a recovery path aiming the reset line at the wrong tile reads false
// instead of silently "succeeding" against a phantom coordinate.
func (n *Network) ResetTile(c Coord) bool {
	if !n.Contains(c) || !n.gated[c] {
		return false
	}
	delete(n.gated, c)
	return true
}

// Decoupled reports whether the tile at c is currently gated.
func (n *Network) Decoupled(c Coord) bool { return n.gated[c] }

// ErrDecoupled is returned when a transfer touches a gated tile.
type ErrDecoupled struct {
	Tile Coord
}

// Error implements error.
func (e *ErrDecoupled) Error() string {
	return fmt.Sprintf("noc: tile %s is decoupled for reconfiguration", e.Tile)
}

// Transfer reserves the XY path from src to dst on plane p for a packet
// of the given payload size and returns the virtual time at which the
// tail flit arrives. Links already busy push the start time back, which
// is how contention manifests.
func (n *Network) Transfer(p Plane, src, dst Coord, bytes int) (sim.Time, error) {
	if p < 0 || p >= NumPlanes {
		return 0, fmt.Errorf("noc: plane %d out of range (%d planes)", p, int(NumPlanes))
	}
	if n.gated[src] {
		return 0, &ErrDecoupled{Tile: src}
	}
	if n.gated[dst] {
		return 0, &ErrDecoupled{Tile: dst}
	}
	if bytes <= 0 {
		return 0, fmt.Errorf("noc: non-positive transfer size %d", bytes)
	}
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	if n.faults != nil {
		if err := n.faults.TransferFault(p, src, dst); err != nil {
			return 0, err
		}
	}
	flits := int64((bytes + flitBytes - 1) / flitBytes)
	flits++ // head flit

	now := n.eng.Now()
	cycle := sim.Clock(1, n.cfg.FreqHz)
	hopLat := sim.Time(routerLatencyCycles) * cycle
	serial := sim.Time(flits) * cycle

	// Wormhole: the head advances one hop per router latency; each link
	// is then occupied for the full flit train. The start time is pushed
	// back until every link on the path is free at its offset.
	start := now
	for {
		pushed := false
		for i := 0; i+1 < len(path); i++ {
			lk := n.linkFor(p, path[i], path[i+1])
			need := start + sim.Time(i)*hopLat
			if lk.freeAt > need {
				start += lk.freeAt - need
				pushed = true
			}
		}
		if !pushed {
			break
		}
	}
	for i := 0; i+1 < len(path); i++ {
		lk := n.linkFor(p, path[i], path[i+1])
		lk.freeAt = start + sim.Time(i)*hopLat + serial
		lk.flits += flits
	}
	n.packets++
	if n.mTransfers != nil {
		n.mTransfers[p].Inc()
		n.mFlits[p].Add(flits)
	}
	done := start + sim.Time(len(path)-1)*hopLat + serial
	if len(path) == 1 { // local delivery still pays serialization
		done = start + serial
	}
	return done, nil
}

func (n *Network) linkFor(p Plane, from, to Coord) *link {
	k := linkKey{plane: p, from: from, to: to}
	l, ok := n.links[k]
	if !ok {
		l = &link{}
		n.links[k] = l
	}
	return l
}

// Stats summarizes traffic carried so far.
type Stats struct {
	Packets    int64
	LinksUsed  int
	TotalFlits int64
}

// Stats returns the accumulated traffic statistics.
func (n *Network) Stats() Stats {
	s := Stats{Packets: n.packets, LinksUsed: len(n.links)}
	for _, l := range n.links {
		s.TotalFlits += l.flits
	}
	return s
}

// PlaneStats returns the flits carried and links used on one physical
// plane — the per-plane utilization breakdown designers size the NoC
// with.
func (n *Network) PlaneStats(p Plane) Stats {
	var s Stats
	for k, l := range n.links {
		if k.plane == p {
			s.LinksUsed++
			s.TotalFlits += l.flits
		}
	}
	return s
}
