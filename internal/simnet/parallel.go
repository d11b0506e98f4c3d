package simnet

import (
	"fmt"
	"sort"

	"bgpworms/internal/conc"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

// runRounds drains the propagation queue with the round-based reference
// engine: the plain form of the algorithm runDelta optimizes — global
// sorted frontier, per-session ExportTo/RecordAdvertised, cloning
// ReceiveUpdate, every router call keyed by prefix rather than id — kept
// so the differential tests can hold the delta engine's taps, archives,
// delivery counts and RIBs to it. Each round is a synchronous step over
// the current frontier:
//
//  1. export (parallel, sharded by source router): every frontier item
//     computes its per-neighbor exports; ExportTo reads only the source
//     and RecordAdvertised writes only the source's Adj-RIB-Out, so
//     sharding by source keeps router state single-owner;
//  2. observe (serial): deliveries fire the taps observing their
//     receiver in canonical frontier order — sources ascending, items in
//     (ASN, prefix) order, neighbors ascending — and the convergence
//     bound is enforced;
//  3. receive (parallel, sharded by destination router): each router
//     drains its inbox in the canonical order of step 2; ReceiveUpdate /
//     ReceiveWithdraw mutate only the destination;
//  4. schedule (serial): routers whose best route changed enqueue the
//     next frontier, again in canonical order.
//
// The barriers between phases mean every phase sees the same router
// state regardless of how many workers split the shards, which is what
// makes the engine deterministic for any worker count.
func (n *Network) runRounds(workers int) (int, error) {
	// update is one delivery as the single-step API passes it: the route
	// ExportTo built (nil for a withdrawal) rather than an arena handle.
	type update struct {
		from, to topo.ASN
		id       uint32
		rt       *policy.Route
	}
	delivered := 0
	for len(n.queue) > 0 {
		pfx := n.routes.Table().Prefixes()
		frontier := n.queue
		n.queue = nil
		clear(n.queued)
		sort.Slice(frontier, func(i, j int) bool {
			if frontier[i].asn != frontier[j].asn {
				return frontier[i].asn < frontier[j].asn
			}
			return netx.ComparePrefix(pfx[frontier[i].id], pfx[frontier[j].id]) < 0
		})

		// Group frontier items by source router, preserving sort order.
		var srcOrder []topo.ASN
		bySrc := make(map[topo.ASN][]workItem)
		for _, it := range frontier {
			if _, seen := bySrc[it.asn]; !seen {
				srcOrder = append(srcOrder, it.asn)
			}
			bySrc[it.asn] = append(bySrc[it.asn], it)
		}

		// Copy-on-write barrier: phase 1 mutates source Adj-RIB-Outs from
		// worker goroutines, so any still-sealed sources are cloned here,
		// in the serial section, where the router map is single-owner.
		if n.cow {
			for _, a := range srcOrder {
				n.mutable(a)
			}
		}

		// Phase 1: compute exports per source.
		outs := make([][]update, len(srcOrder))
		conc.Do(len(srcOrder), workers, func(i int) {
			src := n.routers[srcOrder[i]]
			var ds []update
			for _, it := range bySrc[srcOrder[i]] {
				for _, nb := range src.Neighbors() {
					if n.routers[nb] == nil {
						continue // session to an unmodelled node (e.g. a pure tap)
					}
					out, decision := src.ExportTo(nb, pfx[it.id])
					if decision != router.ExportSent {
						out = nil // anything not sent is a withdrawal if previously sent
					}
					if !src.RecordAdvertised(nb, pfx[it.id], out) {
						continue // nothing new on this session
					}
					ds = append(ds, update{from: it.asn, to: nb, id: it.id, rt: out})
				}
			}
			outs[i] = ds
		})

		// Phase 2: count deliveries and fire taps in canonical order.
		var round []update
		for _, ds := range outs {
			round = append(round, ds...)
		}
		for _, d := range round {
			delivered++
			n.steps++
			var ref RouteRef // stored for the first tap that observes d
			for _, t := range n.taps {
				if t.fn != nil && t.observes(d.to) {
					if d.rt != nil && !ref.Valid() {
						ref = n.routes.Ref(n.routes.Add(d.rt))
					}
					t.fn(d.from, d.to, pfx[d.id], ref)
				}
			}
			if delivered > n.maxDeliveries() {
				return delivered, fmt.Errorf("simnet: no convergence after %d deliveries", delivered)
			}
		}

		// Phase 3: apply inboxes per destination.
		var dstOrder []topo.ASN
		byDst := make(map[topo.ASN][]update)
		for _, d := range round {
			if _, seen := byDst[d.to]; !seen {
				dstOrder = append(dstOrder, d.to)
				if n.cow {
					// Destinations mutate in phase 3's worker pool; clone
					// sealed ones now, while still serial.
					n.mutable(d.to)
				}
			}
			byDst[d.to] = append(byDst[d.to], d)
		}
		changed := make([][]uint32, len(dstOrder))
		conc.Do(len(dstOrder), workers, func(i int) {
			dst := n.routers[dstOrder[i]]
			seen := make(map[uint32]bool)
			var ch []uint32
			for _, d := range byDst[dstOrder[i]] {
				reschedule := false
				if d.rt != nil {
					res, chg := dst.ReceiveUpdate(d.from, d.rt)
					reschedule = res == router.ImportAccepted && chg
				} else {
					reschedule = dst.ReceiveWithdraw(d.from, pfx[d.id])
				}
				if reschedule && !seen[d.id] {
					seen[d.id] = true
					ch = append(ch, d.id)
				}
			}
			changed[i] = ch
		})

		// Phase 4: build the next frontier in canonical order.
		for i, dst := range dstOrder {
			for _, id := range changed[i] {
				n.schedule(dst, pfx[id])
			}
		}
	}
	return delivered, nil
}
