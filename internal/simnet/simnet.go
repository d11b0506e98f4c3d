// Package simnet runs a deterministic AS-level BGP network to convergence:
// a work-queue propagation engine over router.Router instances, a
// resolvable data plane (forward / traceroute / ping over the converged
// FIBs), looking-glass views, and a session tap that collectors use to
// record MRT-faithful update streams.
//
// A tap subscribes either to every delivery or to the deliveries to a
// set of receivers (Tap's ASNs): a collector observes its own sessions
// and nothing else, so the engine buffers and replays only what some tap
// observes — on a generated world about one delivery in twenty.
//
// Apply converges the network with one algorithm, the delta-driven
// event engine (delta.go); SetWorkers only sizes its pool. Convergence
// counts, tap ordering, and final RIBs are bit-identical for any worker
// count under a fixed seed, which is what lets the layers above —
// gen.Params.Workers, core.Pipeline, and the scenario sweep's
// engine-workers grid dimension — change parallelism without changing
// results. The differential tests hold the engine to a spec oracle
// written from RFC 4271 and the documented policy rules, which shares
// no code with it (spec_test.go; see ARCHITECTURE.md, "Determinism
// contracts" and "Engine").
package simnet

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sort"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

// UpdateTap observes a delivered announcement (rt.Valid()) or withdrawal
// (the zero RouteRef) on the session from→to. Collectors attach here.
type UpdateTap func(from, to topo.ASN, prefix netip.Prefix, rt RouteRef)

// RouteRef names a delivered route in the network's route arena. A tap
// may keep it: the reference keeps the arena alive, and the route it
// names never changes. RouteRef.Route resolves it.
type RouteRef = router.Ref

// tap is one registration: fn observes the deliveries to the receivers
// in to (ascending, distinct), or every delivery when to is empty. An
// untapped registration keeps its slot with a nil fn.
type tap struct {
	fn UpdateTap
	to []topo.ASN
}

// observes reports whether the tap sees a delivery to asn.
func (t tap) observes(asn topo.ASN) bool {
	_, ok := slices.BinarySearch(t.to, asn)
	return len(t.to) == 0 || ok
}

// Network is a set of interconnected routers plus the propagation engine.
type Network struct {
	Graph   *topo.Graph
	routers map[topo.ASN]*router.Router
	// routes is the one arena every router of this network is built on
	// and stores its routes in; every router indexes its slots by the
	// arena's prefix table. Prefix ids are assigned only in serial entry
	// points (schedule, the routers' own Originate), never inside a
	// convergence run. Handles and the ids of interned paths and
	// community sets are assigned inside convergence runs too (the
	// engine's workers append through cursors of their own). None of them
	// shows in anything a tap, archive or RIB dump carries.
	routes *router.RouteArena

	// queue of (asn, prefix id) pairs whose exports must be recomputed.
	queue   []workItem
	queued  map[workItem]bool
	taps    []tap
	tapVer  int // bumped by Tap and Untap: the delta engine's tap lists follow it
	steps   int
	maxWork int
	// workers is the engine's shard pool size (SetWorkers).
	workers int
	// delta is the delta engine's cached index and scratch (delta.go).
	delta *deltaState
	// frozen marks a network sealed by Freeze: its routers are shared
	// with a Snapshot and every mutation panics (snapshot.go).
	frozen bool
	// cow marks a network created by Snapshot.Fork: some routers may be
	// sealed originals that engines must copy-on-write before mutating.
	cow bool
	// opDone observes each op's end (OnOp); nil when nothing does.
	opDone func(i int)
}

type workItem struct {
	asn topo.ASN
	id  uint32
}

// ConfigFunc builds the router configuration for an AS. The returned
// config's ASN field is overwritten with asn.
type ConfigFunc func(asn topo.ASN) router.Config

// DefaultConfig gives every AS JunOS-style forward-all behaviour.
func DefaultConfig(asn topo.ASN) router.Config {
	return router.Config{ASN: asn, Vendor: router.VendorJuniper, Propagation: policy.PropForwardAll}
}

// New builds a network over g, configuring each AS via mk (nil =
// DefaultConfig) and wiring sessions for every graph edge.
func New(g *topo.Graph, mk ConfigFunc) *Network {
	if mk == nil {
		mk = DefaultConfig
	}
	n := &Network{
		Graph:   g,
		routers: make(map[topo.ASN]*router.Router, g.NumASes()),
		routes:  router.NewRouteArena(),
		queued:  make(map[workItem]bool),
		maxWork: 0,
	}
	for _, asn := range g.ASes() {
		cfg := mk(asn)
		cfg.ASN = asn
		n.routers[asn] = router.New(cfg, n.routes)
	}
	for _, asn := range g.ASes() {
		r := n.routers[asn]
		for _, nb := range g.Neighbors(asn) {
			r.AddNeighbor(nb, g.Relationship(asn, nb))
		}
	}
	return n
}

// Routes returns the network's route arena, which resolves the handles
// its routers and taps name.
func (n *Network) Routes() *router.RouteArena { return n.routes }

// Router returns the speaker for asn (nil if absent).
func (n *Network) Router(asn topo.ASN) *router.Router { return n.routers[asn] }

// AddRouter builds an extra node from cfg (e.g. a route server or an
// injection platform) that is not part of the relationship graph, on the
// network's route arena, and returns it. Sessions must be wired
// explicitly with Connect.
func (n *Network) AddRouter(cfg router.Config) *router.Router {
	if n.frozen {
		panic(fmt.Sprintf("simnet: AddRouter(AS%d) on frozen network — fork the snapshot instead", cfg.ASN))
	}
	r := router.New(cfg, n.routes)
	n.routers[cfg.ASN] = r
	n.invalidateDelta()
	return r
}

// Connect wires a bilateral session between two present routers, with rel
// describing what b is to a.
func (n *Network) Connect(a, b topo.ASN, rel topo.Rel) error {
	if n.routers[a] == nil || n.routers[b] == nil {
		return fmt.Errorf("simnet: connect %d-%d: missing router", a, b)
	}
	ra, rb := n.mutable(a), n.mutable(b)
	ra.AddNeighbor(b, rel)
	var back topo.Rel
	switch rel {
	case topo.RelCustomer:
		back = topo.RelProvider
	case topo.RelProvider:
		back = topo.RelCustomer
	default:
		back = topo.RelPeer
	}
	rb.AddNeighbor(a, back)
	return nil
}

// Tap registers an update observer and returns a handle for Untap.
// With no ASNs the tap observes every delivery in the network; with
// ASNs it observes only the deliveries whose receiver is one of them,
// the way a collector observes its own sessions. Deliveries no tap
// observes are neither buffered nor replayed.
//
// Taps fire serially, op by op in Apply order and within an op in
// canonical delivery order, so each tap observes a deterministic stream
// for any worker count; taps observing the same delivery fire in
// registration order. Scoping a tap changes which deliveries it sees,
// never their order. The delta engine fires taps once the op's window
// has converged, so a tap must not read router state.
func (n *Network) Tap(t UpdateTap, to ...topo.ASN) int {
	to = slices.Compact(slices.Sorted(slices.Values(to)))
	n.taps = append(n.taps, tap{fn: t, to: to})
	n.tapVer++
	return len(n.taps) - 1
}

// Untap detaches the observer registered under id (a no-op for invalid
// handles). Detaching keeps other handles stable, so short-lived
// observers — a detection engine watching one attack window, say — can
// come and go without disturbing collectors.
func (n *Network) Untap(id int) {
	if id >= 0 && id < len(n.taps) {
		n.taps[id].fn = nil
		n.tapVer++
	}
}

// OnOp registers fn to run once per op of every later Apply, with the
// op's index in that Apply's list, after the op has converged and its
// deliveries have fired every tap and before any later op's do: a tap's
// calls between two fn calls are exactly the op's. A nil fn stops the
// calls. Forks do not inherit it.
func (n *Network) OnOp(fn func(i int)) { n.opDone = fn }

// Steps returns the number of update deliveries processed so far.
func (n *Network) Steps() int { return n.steps }

// schedule queues (asn, p) for export and returns p's prefix id.
func (n *Network) schedule(asn topo.ASN, p netip.Prefix) uint32 {
	it := workItem{asn: asn, id: n.routes.Table().Intern(p.Masked())}
	if !n.queued[it] {
		n.queued[it] = true
		n.queue = append(n.queue, it)
	}
	return it.id
}

// Op is one origination change at AS: an announcement of Prefix tagged
// with Communities, or, with Withdraw set, the removal of AS's own
// origination of Prefix.
type Op struct {
	AS          topo.ASN
	Prefix      netip.Prefix
	Communities []bgp.Community
	Withdraw    bool
}

// Announce originates prefix at asn with optional communities and runs the
// network to convergence, returning the number of deliveries processed.
func (n *Network) Announce(asn topo.ASN, p netip.Prefix, comms ...bgp.Community) (int, error) {
	return first(n.Apply(Op{AS: asn, Prefix: p, Communities: comms}))
}

// Withdraw removes a locally originated prefix at asn and reconverges.
func (n *Network) Withdraw(asn topo.ASN, p netip.Prefix) (int, error) {
	return first(n.Apply(Op{AS: asn, Prefix: p, Withdraw: true}))
}

// first unpacks a one-op Apply.
func first(counts []int, err error) (int, error) { return counts[0], err }

// Apply makes each op's origination change and converges the network
// after it, in slice order, returning the deliveries each op caused.
// Taps, per-op counts, OnOp's calls and final RIBs are exactly those of
// applying the ops one at a time; the delta engine gets there by
// converging ops on distinct prefixes together (applyWindow). An op from
// an unknown AS ends the list with an error after the ops before it are
// applied. An op that exceeds the convergence bound — counted per op —
// ends it with the error it raises on its own, leaving the network
// mid-convergence and, under the delta engine, its window's taps and
// OnOp calls unfired.
func (n *Network) Apply(ops ...Op) ([]int, error) {
	counts := make([]int, len(ops))
	valid := len(ops)
	for i, op := range ops {
		if n.routers[op.AS] == nil {
			valid = i
			break
		}
	}
	for lo := 0; lo < valid; lo += applyWindowOps {
		hi := min(lo+applyWindowOps, valid)
		if err := n.applyWindow(lo, ops[lo:hi], counts[lo:hi]); err != nil {
			return counts, err
		}
	}
	if valid < len(ops) {
		verb := "announce"
		if ops[valid].Withdraw {
			verb = "withdraw"
		}
		return counts, fmt.Errorf("simnet: %s from unknown AS%d", verb, ops[valid].AS)
	}
	return counts, nil
}

// endOp reports the end of op i of the running Apply to OnOp's fn.
func (n *Network) endOp(i int) {
	if n.opDone != nil {
		n.opDone(i)
	}
}

// originate makes op's change at its AS and, when the AS's Loc-RIB
// changed, schedules the prefix for export and returns its id.
func (n *Network) originate(op Op) (id uint32, scheduled bool) {
	r := n.mutable(op.AS)
	var changed bool
	if op.Withdraw {
		changed = r.WithdrawLocal(op.Prefix)
	} else {
		changed = r.Originate(op.Prefix, op.Communities...)
	}
	if !changed {
		return 0, false
	}
	return n.schedule(op.AS, op.Prefix), true
}

// maxDeliveries bounds a single convergence run; policy-driven BGP can
// oscillate, and a deterministic bound turns that into a diagnosable error
// instead of a hang. The bound scales with network size.
func (n *Network) maxDeliveries() int {
	if n.maxWork > 0 {
		return n.maxWork
	}
	return 400*len(n.routers)*len(n.routers) + 100000
}

// SetMaxDeliveries overrides the convergence bound (0 = default).
func (n *Network) SetMaxDeliveries(v int) { n.maxWork = v }

// SetWorkers sizes the engine's shard pool (0 or negative = one per
// available CPU). It never changes results — convergence counts, tap
// delivery order, and final RIB state are independent of the worker
// count: rounds are logical barriers and all cross-router effects are
// applied in a canonical order, so workers only split work inside a
// phase.
func (n *Network) SetWorkers(w int) {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	n.workers = w
}

// Workers returns the engine's pool size (1 until SetWorkers is called).
func (n *Network) Workers() int {
	if n.workers == 0 {
		return 1
	}
	return n.workers
}

// ASes lists all router ASNs in ascending order.
func (n *Network) ASes() []topo.ASN {
	out := make([]topo.ASN, 0, len(n.routers))
	for a := range n.routers {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
