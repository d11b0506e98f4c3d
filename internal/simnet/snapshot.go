package simnet

import (
	"fmt"
	"maps"
	"sync"

	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

// Warm-world snapshots: Freeze seals a converged network into an
// immutable Snapshot whose routers — route slabs, slot tables, LPM
// tries — are shared, and Fork yields a mutable network backed by that
// shared state. A fork pays two shallow map copies up front (routers,
// prefix ids) and an arena Clone that copies nothing per route or per
// interned path and community set; a router is then cloned the first time a run touches it
// (mutable), and the clone shares the sealed router's slot and slab
// pages, copying a page only when it first writes it (router/cow.go).
// A scenario's perturbation therefore costs O(pages written) — a page or
// two per router per prefix it reaches — not O(dirty routers × table),
// let alone O(world). The engines pre-clone exactly the routers a round
// will mutate during their serial phases (see runDelta and runRounds),
// and every mutating entry point on a sealed router panics, so a missed
// clone is a loud failure instead of cross-fork corruption.

// Snapshot is an immutable, converged world: the shared backbone any
// number of concurrent forks read through. It is created by
// Network.Freeze and is safe for concurrent Fork calls.
type Snapshot struct {
	graph   *topo.Graph
	routers map[topo.ASN]*router.Router
	routes  *router.RouteArena
	steps   int
	maxWork int
	workers int
	oracle  bool

	mu        sync.Mutex
	forks     int
	discarded bool
}

// Freeze seals the network into a Snapshot. The network must be
// converged (empty propagation queue) and not itself derive from a
// snapshot — refreezing a fork (or freezing twice) is an error, because
// its sealed routers are shared with sibling forks. After Freeze the
// original network is read-only: any mutation attempt panics.
func (n *Network) Freeze() (*Snapshot, error) {
	if n.frozen {
		return nil, fmt.Errorf("simnet: network already frozen")
	}
	if len(n.queue) > 0 {
		return nil, fmt.Errorf("simnet: freeze of unconverged network (%d queued items)", len(n.queue))
	}
	for asn, r := range n.routers {
		if r.Sealed() {
			return nil, fmt.Errorf("simnet: freeze would re-seal AS%d — forks cannot be frozen", asn)
		}
	}
	for _, r := range n.routers {
		r.Seal()
	}
	n.frozen = true
	// A frozen network never runs again: drop the engine scratch, whose
	// buffers would otherwise live as long as the snapshot.
	n.invalidateDelta()
	return &Snapshot{
		graph:   n.Graph,
		routers: n.routers,
		routes:  n.routes,
		steps:   n.steps,
		maxWork: n.maxWork,
		workers: n.workers,
		oracle:  n.oracle,
	}, nil
}

// Fork returns a mutable network backed by the snapshot's sealed
// routers. The fork inherits the engine configuration and delivery
// counter captured at freeze time, so a run on the fork resolves to the
// same engine and counts steps exactly as a scratch-built world would.
// Forks are independent: mutations copy-on-write the touched routers,
// and the prefixes, routes, AS paths and community sets a fork stores
// land in its own Clone of the snapshot's arena and prefix table, which
// neither the snapshot nor a sibling fork can reach.
func (s *Snapshot) Fork() (*Network, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.discarded {
		return nil, fmt.Errorf("simnet: fork of discarded snapshot")
	}
	s.forks++
	routes := s.routes.Clone()
	return &Network{
		Graph:    s.graph,
		routers:  maps.Clone(s.routers),
		routes:   routes,
		prefixes: routes.Table(),
		queued:   make(map[workItem]bool),
		steps:    s.steps,
		maxWork:  s.maxWork,
		workers:  s.workers,
		oracle:   s.oracle,
		cow:      true,
	}, nil
}

// Forks returns how many forks the snapshot has handed out.
func (s *Snapshot) Forks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forks
}

// Discard retires the snapshot: subsequent Fork calls fail. Existing
// forks keep working — they hold their own references to the sealed
// routers. Discarding twice is an error (use-after-discard bugs should
// surface, not idle).
func (s *Snapshot) Discard() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.discarded {
		return fmt.Errorf("simnet: snapshot already discarded")
	}
	s.discarded = true
	return nil
}

// mutable returns the router for asn, copy-on-writing it into this
// network's router map if it is still the snapshot's sealed original.
// Callers must be in a serial section (engine phases pre-clone before
// fanning out; see the COW-serialization note on each engine). Returns
// nil if the router is absent.
func (n *Network) mutable(asn topo.ASN) *router.Router {
	r := n.routers[asn]
	if r == nil || !r.Sealed() {
		return r
	}
	if n.frozen {
		panic(fmt.Sprintf("simnet: mutation of frozen network (AS%d) — fork the snapshot instead", asn))
	}
	cp := r.Clone()
	cp.Rebind(n.routes)
	n.routers[asn] = cp
	return cp
}

// MutableRouter is the public copy-on-write accessor: like Router, but
// the returned speaker is safe to mutate in this world. Harness code
// that edits configs or catalogs after a fork must come through here.
func (n *Network) MutableRouter(asn topo.ASN) *router.Router { return n.mutable(asn) }
