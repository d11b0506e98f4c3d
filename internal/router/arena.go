package router

import (
	"slices"
	"sync"
	"sync/atomic"

	"bgpworms/internal/policy"
)

// Handle names a route in a RouteArena; 0 names no route. Slots,
// Adj-RIB entries, ExportItems and the delta engine's deliveries carry
// handles instead of *policy.Route, so none of them holds a pointer and
// the garbage collector marks each stored route once, in its arena page,
// instead of once per table entry that refers to it.
//
// Like prefix ids, handles follow the order in which routes were built,
// which depends on worker scheduling: nothing may order by them or print
// them, and equal handles are only a fast path for equal routes (the
// comparisons in decision.go fall back to content).
type Handle uint32

// arenaPageBits sizes an arena page: 1024 routes.
const (
	arenaPageBits = 10
	arenaPage     = 1 << arenaPageBits
)

// cursorBlock is how many handles a RouteCursor reserves at a time: one
// atomic add per block, and at most one block's tail per engine worker
// left unused when the network goes.
const cursorBlock = 256

type routePage [arenaPage]policy.Route

// routeView is an arena's page directory as of one load. Directories are
// immutable once published, so a view stays valid while the arena grows;
// it resolves every handle reserved before it was loaded.
type routeView []*routePage

func (v routeView) at(h Handle) *policy.Route { return &v[h>>arenaPageBits][h&(arenaPage-1)] }

// RouteArena is an append-only store of routes addressed by Handle. A
// simnet.Network owns one arena for all of its routers; a router built
// by New owns a private one until Rebind moves it (the ownership rule of
// PrefixTable). Routes are written once, when they are built, and never
// changed or freed: an arena goes with the network that owns it.
//
// Appends may run concurrently. A route is written by the goroutine that
// reserved its handle and read by others only after a barrier that
// follows the write — the delta engine's phase barriers, which slots
// already rely on. The engine's workers reserve blocks of handles
// through a RouteCursor each; the single-step API reserves one handle at
// a time. The page directory grows under mu and is published through an
// atomic pointer, so readers never lock.
type RouteArena struct {
	dir    atomic.Pointer[routeView]
	next   atomic.Uint32 // the next unreserved handle
	stored atomic.Int64  // routes written (cursors add theirs on Flush)
	mu     sync.Mutex    // serializes directory growth

	// base and baseLen record the arena this one was cloned from and its
	// reserved length then: while base has not grown since, a router can
	// move from base to this arena keeping its handles (Router.Rebind).
	base    *RouteArena
	baseLen uint32
}

// NewRouteArena returns an empty arena.
func NewRouteArena() *RouteArena {
	a := &RouteArena{}
	a.next.Store(1) // handle 0 is "no route"
	return a
}

func (a *RouteArena) view() routeView {
	if v := a.dir.Load(); v != nil {
		return *v
	}
	return nil
}

// At returns the route h names, nil for handle 0. The route is shared:
// it must not be written through.
func (a *RouteArena) At(h Handle) *policy.Route {
	if h == 0 {
		return nil
	}
	return a.view().at(h)
}

// Add stores a copy of rt and returns its handle.
func (a *RouteArena) Add(rt *policy.Route) Handle {
	h, slot := a.slot()
	*slot = *rt
	return h
}

// slot reserves one handle and returns it with its (zero) route.
func (a *RouteArena) slot() (Handle, *policy.Route) {
	h := a.reserve(1)
	a.stored.Add(1)
	return h, a.view().at(h)
}

// Routes returns how many routes the arena holds, those flushed by
// cursors included; a clone counts its original's.
func (a *RouteArena) Routes() int64 { return a.stored.Load() }

// reserve claims n consecutive handles and makes sure pages back them.
func (a *RouteArena) reserve(n uint32) Handle {
	hi := a.next.Add(n)
	if hi < n {
		panic("router: route arena exhausted (2^32 routes)")
	}
	if need := int((hi-1)>>arenaPageBits) + 1; need > len(a.view()) {
		a.grow(need)
	}
	return Handle(hi - n)
}

// grow extends the directory to need pages. The new directory may reuse
// the old one's spare capacity: readers of the old one never index past
// its length, and a clone's directory is clipped, so no other arena
// shares that capacity.
func (a *RouteArena) grow(need int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.view()
	if len(v) >= need {
		return
	}
	for len(v) < need {
		v = append(v, new(routePage))
	}
	a.dir.Store(&v)
}

// Clone returns an arena that resolves every handle a resolves and
// shares its pages; routes added to either afterwards are invisible to
// the other. The clone's own routes start on a fresh page: a's last page
// may have room left, and sibling clones would fill it with the same
// handles. World forks clone the snapshot's arena.
func (a *RouteArena) Clone() *RouteArena {
	n := a.next.Load()
	v := slices.Clip(a.view())
	c := &RouteArena{base: a, baseLen: n}
	c.dir.Store(&v)
	c.next.Store((n + arenaPage - 1) &^ (arenaPage - 1))
	c.stored.Store(a.stored.Load())
	return c
}

// RouteCursor appends routes to an arena from one goroutine, reserving
// handles a block at a time. The delta engine keeps one per worker and
// hands it to ExportAll and ReceiveSharedNoDecide; a cursor must not be
// used by two goroutines at once.
type RouteCursor struct {
	a         *RouteArena
	next, end Handle
	added     int64
}

// Cursor returns a cursor appending to a.
func (a *RouteArena) Cursor() RouteCursor { return RouteCursor{a: a} }

// alloc returns a fresh handle and its (zero) route for the caller to
// fill.
func (c *RouteCursor) alloc() (Handle, *policy.Route) {
	if c.next == c.end {
		c.next = c.a.reserve(cursorBlock)
		c.end = c.next + cursorBlock
	}
	h := c.next
	c.next++
	c.added++
	return h, c.a.view().at(h)
}

// Flush adds the routes the cursor wrote since its last Flush to the
// arena's Routes count. Call it where no other goroutine uses the cursor.
func (c *RouteCursor) Flush() {
	c.a.stored.Add(c.added)
	c.added = 0
}
