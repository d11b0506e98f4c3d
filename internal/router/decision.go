package router

import (
	"net/netip"
	"slices"

	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// decide recomputes the best route for prefix id and reports whether it
// changed. The slot keeps the winning candidate itself — no route is
// built here — and only marks the longest-prefix-match trie stale; it is
// rebuilt on the next data-plane read (ensureRIB), since convergence
// changes best routes thousands of times between FIB queries.
func (r *Router) decide(id uint32) bool {
	st := r.slots.at(id)
	if st == nil {
		return false // never written: no candidates, no best
	}
	a := r.routes
	e, ok := selectBest(a, r.in.view(st.in))
	if !ok {
		if st.best.h == 0 {
			return false
		}
		r.slots.mut(id).best = inEntry{}
		r.bestLen--
		r.ribStale = true
		return true
	}
	if st.best.h != 0 && sameEntry(a, st.best, e) {
		// The stored best already equals the winning candidate (including
		// community-only changes — sameEntry compares them).
		return false
	}
	if st.best.h == 0 {
		r.bestLen++
	}
	r.slots.mut(id).best = e
	r.ribStale = true
	return true
}

// ensureRIB rebuilds the longest-prefix-match trie from the slots if best
// routes changed since the last data-plane read. The trie's shape depends
// only on the stored prefixes (bit paths), so neither slot order nor the
// ids it holds can show in what a lookup returns.
func (r *Router) ensureRIB() {
	if r.sealed {
		// Sealed routers are shared read-only across concurrent forks, and
		// the lazy rebuild is the one write they still perform — serialize
		// it (and the stale check) so two forks' data-plane reads cannot
		// race. The rebuilt trie is deterministic, so whoever wins builds
		// the same view.
		r.ribMu.Lock()
		defer r.ribMu.Unlock()
	}
	if !r.ribStale {
		return
	}
	t := netx.NewTrie[uint32]()
	pfx := r.routes.tbl.Prefixes()
	for id, st := range r.slots.all() {
		if st.best.h != 0 {
			t.Insert(pfx[id], id)
		}
	}
	r.locRIB = t
	r.ribStale = false
}

// selectBest runs the decision process over a prefix's candidates — the
// local origination, if any, and the Adj-RIB-In entries. They are sorted
// by neighbor ASN, so the scan needs no allocation and ties break
// deterministically.
func selectBest(a *RouteArena, cands []inEntry) (inEntry, bool) {
	if len(cands) == 0 {
		return inEntry{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if betterEntry(a, c, best) {
			best = c
		}
	}
	return best, true
}

// betterEntry implements the BGP decision process over Adj-RIB-In
// entries, with the RTBH twist baked into LocalPref (blackhole routes
// arrive with LocalPrefBlackhole, which is why they win "even though
// the AS path of the tagged route is longer", §5.1):
//
//  1. locally-originated beats learned (vendor "weight" semantics: an AS
//     always prefers its own origination)
//  2. higher LocalPref
//  3. shorter AS path
//  4. lower Origin
//  5. lower MED
//  6. lower neighbor ASN (deterministic tie-break)
func betterEntry(a *RouteArena, x, y inEntry) bool {
	xLocal := x.from == 0
	yLocal := y.from == 0
	if xLocal != yLocal {
		return xLocal
	}
	if x.lp != y.lp {
		return x.lp > y.lp
	}
	xr, yr := a.rec(x.h), a.rec(y.h)
	if xr.path != yr.path {
		if xl, yl := a.path(xr.path).HopLength(), a.path(yr.path).HopLength(); xl != yl {
			return xl < yl
		}
	}
	if xr.origin != yr.origin {
		return xr.origin < yr.origin
	}
	if xr.med != yr.med {
		return xr.med < yr.med
	}
	return x.from < y.from
}

// sameStored reports whether two handles name equal routes for
// re-advertisement (sameRecord): equal handles always do, and different
// handles may too (a rebuilt private import, a re-exported class).
func sameStored(a *RouteArena, x, y Handle) bool {
	if x == y {
		return true
	}
	if x == 0 || y == 0 {
		return false
	}
	return a.sameRecord(a.rec(x), a.rec(y))
}

// sameEntry is sameStored between two candidates, reading the
// import-derived attributes from the entries and the rest from their
// records.
func sameEntry(a *RouteArena, x, y inEntry) bool {
	if x.from != y.from || x.lp != y.lp || x.bh != y.bh {
		return false
	}
	if x.h == y.h {
		return true
	}
	xr, yr := a.rec(x.h), a.rec(y.h)
	return xr.pfx == yr.pfx && xr.origin == yr.origin && xr.med == yr.med &&
		xr.comms == yr.comms && a.samePath(xr.path, yr.path)
}

// BestRoute returns the Loc-RIB entry for exactly p.
func (r *Router) BestRoute(p netip.Prefix) (*policy.Route, bool) {
	_, st := r.lookup(p)
	if st == nil || st.best.h == 0 {
		return nil, false
	}
	return r.entryRoute(st.best), true
}

// LookupFIB performs longest-prefix match for a destination address,
// returning the best route covering it — the data-plane view.
func (r *Router) LookupFIB(addr netip.Addr) (*policy.Route, bool) {
	r.ensureRIB()
	_, id, ok := r.locRIB.Lookup(addr)
	if !ok {
		return nil, false
	}
	return r.entryRoute(r.slots.at(id).best), true
}

// RIB returns every Loc-RIB route in canonical prefix order — the looking
// glass view (§7 uses looking glasses for all validation).
func (r *Router) RIB() []*policy.Route {
	var out []*policy.Route
	for _, st := range r.slots.all() {
		if st.best.h != 0 {
			out = append(out, r.entryRoute(st.best))
		}
	}
	slices.SortFunc(out, func(a, b *policy.Route) int { return netx.ComparePrefix(a.Prefix, b.Prefix) })
	return out
}

// EachAdjIn visits every Adj-RIB-In entry in deterministic order
// (canonical prefix order, then ascending neighbor ASN). Collectors use
// this to emit TABLE_DUMP_V2 snapshots with one entry per peer.
func (r *Router) EachAdjIn(fn func(p netip.Prefix, from topo.ASN, rt *policy.Route)) {
	pfx := r.routes.tbl.Prefixes()
	var ids []uint32
	for id, st := range r.slots.all() {
		if c := r.in.view(st.in); len(c) > 1 || len(c) == 1 && c[0].from != 0 {
			ids = append(ids, id) // the local origination is not learned
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return netx.ComparePrefix(pfx[a], pfx[b]) })
	for _, id := range ids {
		for _, e := range r.in.view(r.slots.at(id).in) { // already sorted by neighbor ASN
			if e.from != 0 {
				fn(pfx[id], e.from, r.entryRoute(e))
			}
		}
	}
}

// Prefixes returns all Loc-RIB prefixes in canonical order.
func (r *Router) Prefixes() []netip.Prefix {
	var out []netip.Prefix
	pfx := r.routes.tbl.Prefixes()
	for id, st := range r.slots.all() {
		if st.best.h != 0 {
			out = append(out, pfx[id])
		}
	}
	slices.SortFunc(out, netx.ComparePrefix)
	return out
}
