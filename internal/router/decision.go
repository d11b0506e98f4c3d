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
	e, ok := selectBest(r.in.view(st.in))
	if !ok {
		if st.best.rt == nil {
			return false
		}
		r.slots.mut(id).best = inEntry{}
		r.bestLen--
		r.ribStale = true
		return true
	}
	if st.best.rt != nil && sameEntry(st.best, e) {
		// The stored best already equals the winning candidate (including
		// community-only changes — sameEntry compares them).
		return false
	}
	if st.best.rt == nil {
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
	for id, st := range r.slots.all() {
		if st.best.rt != nil {
			t.Insert(st.best.rt.Prefix, id)
		}
	}
	r.locRIB = t
	r.ribStale = false
}

// selectBest runs the decision process over a prefix's candidates — the
// local origination, if any, and the Adj-RIB-In entries. They are sorted
// by neighbor ASN, so the scan needs no allocation and ties break
// deterministically.
func selectBest(cands []inEntry) (inEntry, bool) {
	if len(cands) == 0 {
		return inEntry{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if betterEntry(c, best) {
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
func betterEntry(a, b inEntry) bool {
	aLocal := a.from == 0
	bLocal := b.from == 0
	if aLocal != bLocal {
		return aLocal
	}
	if a.lp != b.lp {
		return a.lp > b.lp
	}
	al, bl := a.rt.ASPath.HopLength(), b.rt.ASPath.HopLength()
	if al != bl {
		return al < bl
	}
	if a.rt.Origin != b.rt.Origin {
		return a.rt.Origin < b.rt.Origin
	}
	if a.rt.MED != b.rt.MED {
		return a.rt.MED < b.rt.MED
	}
	return a.from < b.from
}

// sameRoute compares the fields that matter for re-advertisement.
func sameRoute(a, b *policy.Route) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Prefix != b.Prefix || a.NextHopAS != b.NextHopAS || a.LocalPref != b.LocalPref ||
		a.Blackhole != b.Blackhole || a.Origin != b.Origin || a.MED != b.MED {
		return false
	}
	return samePathAndComms(a, b)
}

// sameEntry is sameRoute between two candidates, reading the
// import-derived attributes from the entries.
func sameEntry(a, b inEntry) bool {
	if a.from != b.from || a.lp != b.lp || a.bh != b.bh {
		return false
	}
	if a.rt == b.rt {
		return true
	}
	if a.rt.Prefix != b.rt.Prefix || a.rt.Origin != b.rt.Origin || a.rt.MED != b.rt.MED {
		return false
	}
	return samePathAndComms(a.rt, b.rt)
}

func samePathAndComms(a, b *policy.Route) bool {
	if !a.ASPath.EqualSequence(b.ASPath) {
		return false
	}
	if len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}

// BestRoute returns the Loc-RIB entry for exactly p.
func (r *Router) BestRoute(p netip.Prefix) (*policy.Route, bool) {
	_, st := r.lookup(p)
	if st == nil || st.best.rt == nil {
		return nil, false
	}
	return st.best.Route(), true
}

// LookupFIB performs longest-prefix match for a destination address,
// returning the best route covering it — the data-plane view.
func (r *Router) LookupFIB(addr netip.Addr) (*policy.Route, bool) {
	r.ensureRIB()
	_, id, ok := r.locRIB.Lookup(addr)
	if !ok {
		return nil, false
	}
	return r.slots.at(id).best.Route(), true
}

// RIB returns every Loc-RIB route in canonical prefix order — the looking
// glass view (§7 uses looking glasses for all validation).
func (r *Router) RIB() []*policy.Route {
	var out []*policy.Route
	for _, st := range r.slots.all() {
		if st.best.rt != nil {
			out = append(out, st.best.Route())
		}
	}
	slices.SortFunc(out, func(a, b *policy.Route) int { return netx.ComparePrefix(a.Prefix, b.Prefix) })
	return out
}

// EachAdjIn visits every Adj-RIB-In entry in deterministic order
// (canonical prefix order, then ascending neighbor ASN). Collectors use
// this to emit TABLE_DUMP_V2 snapshots with one entry per peer.
func (r *Router) EachAdjIn(fn func(p netip.Prefix, from topo.ASN, rt *policy.Route)) {
	var runs [][]inEntry
	for _, st := range r.slots.all() {
		c := r.in.view(st.in)
		if len(c) > 0 && c[0].from == 0 {
			c = c[1:] // the local origination is not learned
		}
		if len(c) > 0 {
			runs = append(runs, c)
		}
	}
	slices.SortFunc(runs, func(a, b []inEntry) int { return netx.ComparePrefix(a[0].rt.Prefix, b[0].rt.Prefix) })
	for _, c := range runs {
		for _, e := range c { // already sorted by neighbor ASN
			fn(e.rt.Prefix, e.from, e.Route())
		}
	}
}

// Prefixes returns all Loc-RIB prefixes in canonical order.
func (r *Router) Prefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, st := range r.slots.all() {
		if st.best.rt != nil {
			out = append(out, st.best.rt.Prefix)
		}
	}
	slices.SortFunc(out, netx.ComparePrefix)
	return out
}
