package router

import (
	"fmt"
	"maps"
)

// Sealing turns a converged router into the shared, immutable backbone of
// a world snapshot (simnet.Network.Freeze). A sealed router may be read
// concurrently by any number of forked worlds; every mutating entry point
// panics, so a fork that forgets to copy-on-write a router before touching
// it fails loudly instead of silently corrupting every sibling fork. The
// one sanctioned "write" on a sealed router is the lazy Loc-RIB trie
// rebuild in ensureRIB, which is a deterministic cache fill guarded by
// ribMu (see decision.go).
//
// A fork's copy of a router shares the sealed original's pages, page by
// page. The ownership rule: the slot table and both slabs mark each page
// owned or shared (table.go); a Clone owns none; every write path — slot
// writes through slotTable.mut and grow, run writes through slab.run —
// copies a shared page the first time it writes it and owns it from then
// on. Only sealed routers are cloned, so a shared page is never written
// by anyone: a fork pays for the pages it writes, not for the router.

// Seal marks the router immutable. There is no Unseal: forks obtain a
// mutable descendant via Clone.
func (r *Router) Seal() { r.sealed = true }

// Sealed reports whether the router has been sealed.
func (r *Router) Sealed() bool { return r.sealed }

// mustMutable guards every mutating entry point against sealed routers.
func (r *Router) mustMutable() {
	if r.sealed {
		panic(fmt.Sprintf("router: mutation of sealed AS%d (fork the snapshot and use MutableRouter)", r.cfg.ASN))
	}
}

// Clone returns an unsealed copy of a sealed router for copy-on-write
// forking, on arena a: the router's own arena or a Clone of it taken
// since the router was sealed (a fork's), which resolves every handle
// and prefix id the original holds, so the copy keeps them as they are.
// The neighbor set and config maps are copied; the slot and slab pages
// are shared, owned by neither side until the clone writes one (see the
// ownership rule above), so a clone costs a few slices of page pointers
// however many prefixes the router holds. Cloning an unsealed router
// panics: its next write would land in pages the clone reads.
func (r *Router) Clone(a *RouteArena) *Router {
	if !r.sealed {
		panic(fmt.Sprintf("router: Clone of unsealed AS%d (Seal it first)", r.cfg.ASN))
	}
	cp := &Router{
		cfg:       r.cfg,
		neighbors: maps.Clone(r.neighbors),
		nbVersion: r.nbVersion,
		routes:    a,
		slots:     r.slots.share(),
		in:        r.in.share(),
		out:       r.out.share(),
		bestLen:   r.bestLen,
	}
	cp.cfg.SendCommunity = maps.Clone(r.cfg.SendCommunity)
	cp.cfg.PropagationPerNeighbor = maps.Clone(r.cfg.PropagationPerNeighbor)
	cp.cfg.IngressTags = maps.Clone(r.cfg.IngressTags)
	cp.cfg.CustomerPrefixes = maps.Clone(r.cfg.CustomerPrefixes)
	// The LPM trie is rebuilt from scratch whenever it goes stale, never
	// patched in place, so sharing the current trie (or the stale flag)
	// is safe — but a sibling fork may be driving the original's lazy
	// rebuild concurrently, so read under its lock.
	r.ribMu.Lock()
	cp.locRIB, cp.ribStale = r.locRIB, r.ribStale
	r.ribMu.Unlock()
	return cp
}
