package router

import (
	"slices"
	"sync"
	"sync/atomic"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// Handle names a route in a RouteArena; 0 names no route. Slots,
// Adj-RIB entries, ExportItems and the delta engine's deliveries carry
// handles instead of *policy.Route, so none of them holds a pointer.
//
// Like prefix ids, handles follow the order in which routes were built,
// which depends on worker scheduling: nothing may order by them or print
// them. Two handles may name equal routes (a tagged import rebuilt on
// every arrival, say), so equal routes are decided on the records they
// name — their ids and scalar fields — never on the handles.
type Handle uint32

// pageBits sizes the pages of an arena's records and of its intern
// tables: 1024 entries.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
)

// cursorBlock is how many handles a RouteCursor reserves at a time: one
// atomic add per block, and at most one block's tail per engine worker
// left unused when the network goes.
const cursorBlock = 256

// pageView is a paged array's page directory as of one load. Directories
// are immutable once published, so a view stays valid while the array
// grows; it resolves every index reserved before it was loaded.
type pageView[T any] []*[pageLen]T

func (v pageView[T]) at(i uint32) *T { return &v[i>>pageBits][i&(pageLen-1)] }

// paged is an append-only array of T in fixed-size pages, addressed by a
// dense index: an arena's records and an intern table's values. Indices
// are reserved with an atomic add; the page directory grows under mu and
// is published through an atomic pointer, so readers never lock.
type paged[T any] struct {
	dir  atomic.Pointer[pageView[T]]
	next atomic.Uint32 // the next unreserved index
	mu   sync.Mutex    // serializes directory growth
}

func (p *paged[T]) view() pageView[T] {
	if v := p.dir.Load(); v != nil {
		return *v
	}
	return nil
}

func (p *paged[T]) at(i uint32) *T { return p.view().at(i) }

// reserve claims n consecutive indices and makes sure pages back them.
func (p *paged[T]) reserve(n uint32) uint32 {
	hi := p.next.Add(n)
	if hi < n {
		panic("router: paged array exhausted (2^32 entries)")
	}
	if need := int((hi-1)>>pageBits) + 1; need > len(p.view()) {
		p.grow(need)
	}
	return hi - n
}

// grow extends the directory to need pages. The new directory may reuse
// the old one's spare capacity: readers of the old one never index past
// its length, and a shared directory is clipped, so no other array
// shares that capacity.
func (p *paged[T]) grow(need int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view()
	if len(v) >= need {
		return
	}
	for len(v) < need {
		v = append(v, new([pageLen]T))
	}
	p.dir.Store(&v)
}

// shareInto makes c resolve every index p has reserved, through p's own
// pages. c hands out its own indices from the next page boundary: p's
// last page may have room left, and sibling copies would fill it with
// the same indices.
func (p *paged[T]) shareInto(c *paged[T]) {
	n := p.next.Load()
	v := slices.Clip(p.view())
	c.dir.Store(&v)
	c.next.Store((n + pageLen - 1) &^ (pageLen - 1))
}

// record is one stored route (28 bytes, no pointer): the prefix, AS path
// and community set by id — the prefix in the arena's PrefixTable, the
// other two in its intern tables — and every other field by value.
// Arena pages therefore hold no pointer and the garbage collector never
// scans them. Two records name equal routes when sameRecord says so.
type record struct {
	pfx    uint32
	path   uint32 // pathID: mixedPath marks a path that is not one flat sequence
	comms  uint32
	med    uint32
	lp     uint32
	nh     topo.ASN
	origin bgp.Origin
	rel    topo.Rel
	bh     bool
}

// RouteArena is an append-only store of routes addressed by Handle. A
// router is built on one (New) and stores every route it builds there:
// a simnet.Network owns one arena for all of its routers, and a fork's
// copy-on-write routers are cloned onto the fork's Clone of the
// snapshot's (Router.Clone).
// Routes are written once, when they are built, and never changed or
// freed: an arena goes with the network that owns it.
//
// Each route is a record of ids (record): its prefix's id in the arena's
// PrefixTable (Table), and its AS path's and community set's ids in the
// arena's two intern tables, which store each distinct path and set once
// as a canonical read-only value (intern.go). Resolving a record into a
// policy.Route copies fields and allocates nothing; every route it
// yields shares those canonical values and must not be written through.
//
// Appends may run concurrently. A route is written by the goroutine that
// reserved its handle and read by others only after a barrier that
// follows the write — the delta engine's phase barriers, which slots
// already rely on. The engine's workers reserve blocks of handles
// through a RouteCursor each; the single-step API borrows the arena's
// spare cursor. The intern tables take their own locks.
type RouteArena struct {
	tbl    *PrefixTable
	recs   paged[record]
	paths  *internTable[bgp.ASPath, bgp.PathSegment]
	comms  *internTable[bgp.CommunitySet, bgp.Community]
	stored atomic.Int64 // routes written (cursors add theirs on Flush)
	spare  atomic.Pointer[RouteCursor]
	// frozen marks an arena that has been cloned: its clones read its
	// records and intern tables without locking, so nothing may be added
	// to it any more.
	frozen atomic.Bool
}

// NewRouteArena returns an empty arena over a new, empty prefix table.
func NewRouteArena() *RouteArena {
	a := &RouteArena{tbl: NewPrefixTable(), paths: newPathTable(), comms: newCommTable()}
	a.recs.next.Store(1) // handle 0 is "no route"
	return a
}

// Table returns the prefix table the arena's records name prefixes in;
// routers on the arena index their slots by it.
func (a *RouteArena) Table() *PrefixTable { return a.tbl }

func (a *RouteArena) rec(h Handle) *record { return a.recs.at(uint32(h)) }

// route resolves rc into a route sharing the arena's canonical path and
// community set.
func (a *RouteArena) route(rc *record) policy.Route {
	return policy.Route{
		Prefix:      a.tbl.At(rc.pfx),
		ASPath:      a.path(rc.path),
		Communities: a.comms.at(rc.comms),
		Origin:      rc.origin,
		MED:         rc.med,
		LocalPref:   rc.lp,
		NextHopAS:   rc.nh,
		FromRel:     rc.rel,
		Blackhole:   rc.bh,
	}
}

// record interns rt's prefix, path and communities and returns the
// record naming it.
func (a *RouteArena) record(rt *policy.Route) record {
	return record{
		pfx:    a.tbl.Intern(rt.Prefix),
		path:   a.pathID(rt.ASPath),
		comms:  a.comms.intern(rt.Communities),
		med:    rt.MED,
		lp:     rt.LocalPref,
		nh:     rt.NextHopAS,
		origin: rt.Origin,
		rel:    rt.FromRel,
		bh:     rt.Blackhole,
	}
}

// sameRecord reports whether x and y name equal routes for
// re-advertisement: equal prefix, next hop, local preference, blackhole
// flag, origin, MED and communities, and AS paths that flatten to the
// same sequence (segment boundaries ignored, as bgp.ASPath.EqualSequence
// does).
func (a *RouteArena) sameRecord(x, y *record) bool {
	return x.pfx == y.pfx && x.nh == y.nh && x.lp == y.lp && x.bh == y.bh &&
		x.origin == y.origin && x.med == y.med && x.comms == y.comms && a.samePath(x.path, y.path)
}

// Add stores rt and returns its handle.
func (a *RouteArena) Add(rt *policy.Route) Handle { return a.store(a.record(rt)) }

// store stores rc through the arena's spare cursor.
func (a *RouteArena) store(rc record) Handle {
	c := a.borrow()
	defer a.giveBack(c)
	return c.add(rc)
}

// Routes returns how many routes the arena holds, those flushed by
// cursors included; a clone counts its original's.
func (a *RouteArena) Routes() int64 { return a.stored.Load() }

// Interned returns how many distinct AS paths and community sets the
// arena's intern tables hold; a clone counts its original's.
func (a *RouteArena) Interned() (paths, comms int64) { return a.paths.len(), a.comms.len() }

// Clone returns an arena that resolves every handle a resolves, over a
// Clone of a's prefix table. It shares a's record pages and reads a's
// intern tables, adding what it interns to tables of its own, so cloning
// costs nothing per route or interned value. a is frozen: adding to it
// afterwards panics. World forks clone the snapshot's arena.
func (a *RouteArena) Clone() *RouteArena {
	a.frozen.Store(true)
	c := &RouteArena{tbl: a.tbl.Clone(), paths: a.paths.clone(), comms: a.comms.clone()}
	a.recs.shareInto(&c.recs)
	c.stored.Store(a.stored.Load())
	return c
}

// borrow returns the arena's spare cursor, or a new one if another
// caller holds it; giveBack returns it. The single-step API appends
// through it, so its build scratch stays warm across calls.
func (a *RouteArena) borrow() *RouteCursor {
	if c := a.spare.Swap(nil); c != nil {
		return c
	}
	return &RouteCursor{a: a}
}

func (a *RouteArena) giveBack(c *RouteCursor) {
	c.Flush()
	a.spare.Store(c)
}

// Ref returns a reference to the route h names (the zero Ref for 0).
func (a *RouteArena) Ref(h Handle) Ref {
	if h == 0 {
		return Ref{}
	}
	return Ref{a: a, h: h}
}

// Ref names one stored route for readers outside the router — the
// network's taps, collector observations: an arena and a handle in it.
// The zero Ref names no route. Holding a Ref copies nothing; Route
// resolves it.
type Ref struct {
	a *RouteArena
	h Handle
}

// Valid reports whether r names a route.
func (r Ref) Valid() bool { return r.h != 0 }

// Handle returns the route's handle in its arena (0 for the zero Ref).
func (r Ref) Handle() Handle { return r.h }

// Route returns the route r names, which must be Valid. Its AS path and
// community set are the arena's canonical values: read-only.
func (r Ref) Route() policy.Route { return r.a.route(r.a.rec(r.h)) }

// ValueIDs returns the ids of the route's AS path and community set in
// its arena's intern tables, which r must be Valid for: within one arena
// equal ids name equal values, so a reader can convert each distinct
// value once. Like handles, the ids order and print nothing.
func (r Ref) ValueIDs() (path, comms uint32) {
	rc := r.a.rec(r.h)
	return rc.path, rc.comms
}

// RouteCursor appends routes to an arena from one goroutine, reserving
// handles a block at a time, and holds the scratch space routes are
// built in before their path and communities are interned. The delta
// engine keeps one per worker and hands it to ExportAll and
// ReceiveSharedNoDecide; a cursor must not be used by two goroutines at
// once.
type RouteCursor struct {
	a         *RouteArena
	next, end Handle
	added     int64

	asns  []uint32
	segs  bgp.ASPath
	comms bgp.CommunitySet
}

// Cursor returns a cursor appending to a.
func (a *RouteArena) Cursor() RouteCursor { return RouteCursor{a: a} }

// add stores rc under a fresh handle.
func (c *RouteCursor) add(rc record) Handle {
	if c.a.frozen.Load() {
		panic("router: route added to a cloned arena")
	}
	if c.next == c.end {
		c.next = Handle(c.a.recs.reserve(cursorBlock))
		c.end = c.next + cursorBlock
	}
	h := c.next
	c.next++
	c.added++
	*c.a.rec(h) = rc
	return h
}

// Flush adds the routes the cursor wrote since its last Flush to the
// arena's Routes count. Call it where no other goroutine uses the cursor.
func (c *RouteCursor) Flush() {
	c.a.stored.Add(c.added)
	c.added = 0
}
