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

// Clone returns an unsealed deep-enough copy for copy-on-write forking:
// table structure (neighbor set, slots, both slabs, config maps) is
// private to the clone — a page-by-page copy, a few allocations however
// many prefixes the router holds — while the immutable route objects
// themselves — AS-path and community slabs — stay shared with the sealed
// original. Mutating the clone can therefore never reach a sibling fork:
// every in-place write path (storeAdjIn, withdraw, RecordAdvertisedAll,
// EnableFullCommunityExport) lands in clone-owned backing arrays or maps,
// and routes are replaced wholesale, never edited. The clone reads ids
// through the original's table until Rebind moves it.
func (r *Router) Clone() *Router {
	cp := &Router{
		cfg:       r.cfg,
		neighbors: maps.Clone(r.neighbors),
		nbVersion: r.nbVersion,
		tbl:       r.tbl,
		slots:     r.slots.clone(),
		in:        r.in.clone(),
		out:       r.out.clone(),
		bestLen:   r.bestLen,
	}
	cp.cfg.SendCommunity = maps.Clone(r.cfg.SendCommunity)
	cp.cfg.PropagationPerNeighbor = maps.Clone(r.cfg.PropagationPerNeighbor)
	cp.cfg.IngressTags = maps.Clone(r.cfg.IngressTags)
	cp.cfg.CustomerPrefixes = maps.Clone(r.cfg.CustomerPrefixes)
	// The LPM trie is rebuilt from scratch whenever it goes stale, never
	// patched in place, so sharing the current trie (or the stale flag)
	// with the sealed parent is safe — but a sibling fork may be driving
	// the parent's lazy rebuild concurrently, so read under its lock.
	if r.sealed {
		r.ribMu.Lock()
		cp.locRIB, cp.ribStale = r.locRIB, r.ribStale
		r.ribMu.Unlock()
	} else {
		cp.locRIB, cp.ribStale = r.locRIB, r.ribStale
	}
	return cp
}
