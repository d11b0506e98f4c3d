package simnet

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bgpworms/internal/netx"
	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

// The delta engine drains the propagation queue organized around
// change rather than rounds over sorted global frontiers:
//
//   - work lives in per-router dirty-prefix buckets keyed by a dense
//     router index, so a round never sorts a global frontier or clears
//     a global dedup map — only the dirty router indices and each
//     router's few dirty prefixes are ordered;
//   - prefixes travel as the network's dense prefix ids (the routers'
//     slot indices), so buckets, deliveries and every router call in a
//     round hash no prefix; the id is turned back into its prefix only
//     to order a bucket canonically and to show taps the delivery;
//   - exports run through router.ExportAll, which does the
//     neighbor-independent work once per (router, prefix) and shares
//     one route per policy class across sessions — the compact
//     AS-path/community slabs that keep memory flat at large scale;
//   - routes live in the network's router.RouteArena and travel as
//     32-bit handles, so deliveries, inboxes and the routers' tables
//     hold no pointers for the garbage collector to scan; each worker
//     appends through a cursor of its own (curs), reserving handles a
//     block at a time;
//   - receives run through router.ReceiveSharedNoDecide, whose
//     copy-on-write import keeps those routes shared until a router
//     actually tags one;
//   - all scratch (buckets, outboxes, inboxes) is reused across rounds
//     and runs, so steady-state convergence allocates only real routing
//     state;
//   - a delivery is buffered for tap replay only when a tap observes its
//     receiver (tapOf), so a world whose only taps are collectors keeps
//     and replays the few deliveries addressed to them, not the world's.
//
// Determinism contract: the delta engine delivers updates in one
// canonical order (rounds; in a round, sources ascending, dirty prefixes
// in canonical order, neighbors ascending), with barriers between a
// round's exports and its receives, and therefore produces bit-identical
// tap streams, delivery counts, and final RIBs for any worker count.
// TestDifferentialEngines holds it to a spec oracle that delivers in the
// same order (spec_test.go) on randomized worlds.

// deltaState is the delta engine's cached world view plus reusable
// scratch. It is rebuilt when routers are added and refreshed per run
// when sessions changed (Router.NeighborVersion).
type deltaState struct {
	order []topo.ASN            // all routers, ascending
	index map[topo.ASN]int      // ASN -> dense index (fallback)
	byASN []int32               // dense ASN -> index table (fast path)
	nbs   [][]topo.ASN          // modelled neighbors per router, ascending
	hints []*router.ExportHints // per-neighbor export policy, nbs-aligned
	nbVer []int                 // Router.NeighborVersion at last refresh

	owner  []int32              // prefix id -> index in the window of the op converging it
	replay [][]delivery         // per-op observed deliveries of the current window, serial order
	curs   []router.RouteCursor // per-worker appenders on the network's arena

	// Tap lists by receiver, rebuilt when Network.tapVer moves: tapOf
	// maps a router index to its list in tapLists, whose slot 0 holds the
	// whole-world taps. A receiver some tap subscribes to has its own
	// list, the whole-world taps and its subscribers in registration
	// order. An empty list means nothing observes the receiver.
	tapOf    []int32
	tapLists [][]UpdateTap
	tapVer   int

	items   [][]uint32            // per-router dirty prefix ids (current round)
	srcs    []int                 // dirty router indices, ascending
	next    []int                 // dirty router indices for the next round
	outs    [][]delivery          // per-dirty-router outboxes, reused
	exp     [][]router.ExportItem // per-chunk export scratch, reused
	inbox   [][]delivery          // per-router inboxes, reused
	touched []int                 // router indices with non-empty inboxes
	changed [][]uint32            // per-touched changed prefix ids, reused
}

// delivery is one update crossing a session during a round, the prefix
// named by its id in the network's table and the route by its handle in
// the network's arena: h is 0 for withdrawals, mirroring UpdateTap's nil.
type delivery struct {
	from, to topo.ASN
	id       uint32
	h        router.Handle
}

// maxDenseASN bounds the direct-index table; generated worlds stay far
// below it, and anything above (real 4-byte ASNs from sampled CAIDA
// tables) falls back to the map.
const maxDenseASN = 1 << 21

func (st *deltaState) idx(asn topo.ASN) int {
	if st.byASN != nil && asn < maxDenseASN {
		return int(st.byASN[asn])
	}
	return st.index[asn]
}

// invalidateDelta drops the cached dense index; the next delta run
// rebuilds it. Called when routers are added out of band.
func (n *Network) invalidateDelta() { n.delta = nil }

// deltaStateFor returns a fresh or refreshed state for the current
// router and session population.
func (n *Network) deltaStateFor() *deltaState {
	st := n.delta
	if st == nil || len(st.order) != len(n.routers) {
		st = &deltaState{
			order: make([]topo.ASN, 0, len(n.routers)),
			index: make(map[topo.ASN]int, len(n.routers)),
		}
		maxASN := topo.ASN(0)
		for a := range n.routers {
			st.order = append(st.order, a)
			if a > maxASN {
				maxASN = a
			}
		}
		slices.Sort(st.order)
		for i, a := range st.order {
			st.index[a] = i
		}
		if maxASN < maxDenseASN {
			st.byASN = make([]int32, maxASN+1)
			for i, a := range st.order {
				st.byASN[a] = int32(i)
			}
		}
		st.nbs = make([][]topo.ASN, len(st.order))
		st.hints = make([]*router.ExportHints, len(st.order))
		st.nbVer = make([]int, len(st.order))
		st.items = make([][]uint32, len(st.order))
		st.inbox = make([][]delivery, len(st.order))
		n.delta = st
	}
	if st.tapLists == nil || st.tapVer != n.tapVer {
		n.indexTaps(st)
	}
	// Refresh neighbor caches for routers whose session set changed.
	for i, asn := range st.order {
		r := n.routers[asn]
		if v := r.NeighborVersion(); st.nbs[i] == nil || v != st.nbVer[i] {
			st.nbVer[i] = v
			nbs := st.nbs[i][:0]
			for _, nb := range r.Neighbors() {
				if n.routers[nb] != nil { // skip sessions to unmodelled nodes
					nbs = append(nbs, nb)
				}
			}
			st.nbs[i] = nbs
			if st.nbs[i] == nil {
				st.nbs[i] = []topo.ASN{}
			}
			st.hints[i] = r.Hints(st.nbs[i])
		}
	}
	return st
}

// indexTaps rebuilds st's per-receiver tap lists. Each list holds the
// taps observing its receiver (tap.observes) in registration order.
func (n *Network) indexTaps(st *deltaState) {
	observers := func(keep func(tap) bool) []UpdateTap {
		var fns []UpdateTap
		for _, t := range n.taps {
			if t.fn != nil && keep(t) {
				fns = append(fns, t.fn)
			}
		}
		return fns
	}
	st.tapVer = n.tapVer
	st.tapOf = make([]int32, len(st.order))
	st.tapLists = [][]UpdateTap{observers(func(t tap) bool { return len(t.to) == 0 })}
	for _, t := range n.taps {
		for _, asn := range t.to {
			if n.routers[asn] == nil {
				continue // no router, no deliveries to observe
			}
			if ri := st.idx(asn); st.tapOf[ri] == 0 {
				st.tapOf[ri] = int32(len(st.tapLists))
				st.tapLists = append(st.tapLists, observers(func(t tap) bool { return t.observes(asn) }))
			}
		}
	}
}

// applyWindowOps bounds how many ops one applyWindow converges together.
// Batching pays once rounds carry enough sources to shard (doChunked);
// the window's buffered deliveries and the engine scratch that grows
// with round size are its cost. On a 2-core VM,
// windows of 16, 64 and 256 ops built worms -scale medium -workers 2
// equally fast. A window of 64 raised the peak RSS of attacklab's
// small+medium sweep from ~1.5 to ~1.8 GB, while 16 kept it at ~1.5 GB.
// Converging all 1,405 origin announcements as one batch raised worms'
// peak RSS by ~250 MB.
const applyWindowOps = 16

// applyWindow applies ops (at most applyWindowOps, all from known ASes)
// with the delta engine in waves: the k-th op on a prefix goes in wave
// k, so a wave holds each prefix at most once and converges as one
// runDelta with every op's source scheduled. A prefix's trajectory never
// depends on another prefix's state, so the deliveries runDelta credits
// to an op by prefix are exactly, and in the order of, those of the op's
// own serial run; the taps replay them op by op once the window has
// converged, each delivery to the taps that observe its receiver, and
// each op's end (OnOp) follows its replay. base is the index of ops[0]
// in Apply's list.
func (n *Network) applyWindow(base int, ops []Op, counts []int) error {
	var wave [applyWindowOps]int
	waves := 0
	for i, op := range ops {
		p := op.Prefix.Masked()
		for _, prev := range ops[:i] {
			if prev.Prefix.Masked() == p {
				wave[i]++
			}
		}
		waves = max(waves, wave[i]+1)
	}
	st := n.deltaStateFor()
	for len(st.replay) < len(ops) {
		st.replay = append(st.replay, nil)
	}
	stored := n.routes.Routes()
	paths, comms := n.routes.Interned()
	for w := range waves {
		for i, op := range ops {
			if wave[i] != w {
				continue
			}
			if id, ok := n.originate(op); ok {
				if int(id) >= len(st.owner) {
					st.owner = append(st.owner, make([]int32, int(id)+1-len(st.owner))...)
				}
				st.owner[id] = int32(i)
			}
		}
		start := time.Now()
		delivered, err := n.runDelta(n.Workers(), counts)
		deltaRuns.observe(start, delivered)
		if err != nil {
			return err
		}
	}
	pfx := n.routes.Table().Prefixes()
	replayed := 0
	for i := range ops {
		for _, d := range st.replay[i] {
			for _, t := range st.tapLists[st.tapOf[st.idx(d.to)]] {
				t(d.from, d.to, pfx[d.id], n.routes.Ref(d.h))
			}
		}
		replayed += len(st.replay[i])
		st.replay[i] = st.replay[i][:0]
		n.endOp(base + i)
	}
	tapReplayed.Add(uint64(replayed))
	arenaRoutes.Add(uint64(n.routes.Routes() - stored))
	paths1, comms1 := n.routes.Interned()
	internedPaths.Add(uint64(paths1 - paths))
	internedComms.Add(uint64(comms1 - comms))
	return nil
}

// runDelta drains the propagation queue with the delta engine, crediting
// each delivery to the op that owns its prefix (st.owner) in counts and,
// when a tap observes its receiver, buffering it in that op's st.replay.
// It returns the run's total deliveries.
func (n *Network) runDelta(workers int, counts []int) (int, error) {
	st := n.deltaStateFor()
	// Every id a run can meet was interned before it started, so one view
	// of the table serves all rounds without touching its lock.
	pfx := n.routes.Table().Prefixes()
	byPrefix := func(a, b uint32) int { return netx.ComparePrefix(pfx[a], pfx[b]) }
	delivered := 0
	maxWork := n.maxDeliveries()

	// Seed the dirty buckets from the externally scheduled queue (whose
	// dedup map already keeps each item once), then keep all rounds
	// internal: the global queue and its dedup map only ever see Apply's
	// ops.
	st.srcs = st.srcs[:0]
	for _, it := range n.queue {
		ri := st.idx(it.asn)
		if len(st.items[ri]) == 0 {
			st.srcs = append(st.srcs, ri)
		}
		st.items[ri] = append(st.items[ri], it.id)
	}
	n.queue = n.queue[:0]
	clear(n.queued)

	// Churn tallies accumulate locally in the serial sections and flush
	// to the package counters once per run (obs.go).
	var tally deltaRoundTally
	defer tally.flush()
	for len(st.curs) < workers {
		st.curs = append(st.curs, n.routes.Cursor())
	}
	defer func() {
		for w := range st.curs {
			st.curs[w].Flush()
		}
	}()

	for len(st.srcs) > 0 {
		tally.rounds++
		tally.exports += uint64(len(st.srcs))
		slices.Sort(st.srcs)
		if n.cow {
			// Copy-on-write barrier: phase 1 mutates source Adj-RIB-Outs
			// from worker goroutines; clone sealed sources here, in the
			// serial section. Destinations are cloned at first touch in
			// the (serial) phase-2 binning loop below.
			for _, ri := range st.srcs {
				n.mutable(st.order[ri])
			}
		}
		for _, ri := range st.srcs {
			tally.prefixes += uint64(len(st.items[ri]))
		}
		for len(st.outs) < len(st.srcs) {
			st.outs = append(st.outs, nil)
		}
		for len(st.exp) < len(st.srcs) {
			st.exp = append(st.exp, nil)
		}

		// Phase 1: exports, sharded by source router. ExportAll and
		// RecordAdvertisedAll touch only the source, so each shard owns its
		// routers' state.
		doChunked(len(st.srcs), workers, func(w, k int) {
			ri := st.srcs[k]
			src := n.routers[st.order[ri]]
			out := st.outs[k][:0]
			ps := st.items[ri]
			slices.SortFunc(ps, byPrefix) // canonical order is prefix order, never id order
			for _, id := range ps {
				exp := src.ExportAll(&st.curs[w], id, st.nbs[ri], st.hints[ri], st.exp[k][:0])
				st.exp[k] = exp
				// One Adj-RIB-Out merge per (router, prefix): only
				// sessions whose advertisement changed become
				// deliveries (suppressed exports withdraw if
				// previously sent).
				src.RecordAdvertisedAll(id, exp, func(nb topo.ASN, h router.Handle) {
					out = append(out, delivery{from: st.order[ri], to: nb, id: id, h: h})
				})
			}
			st.outs[k] = out
			st.items[ri] = st.items[ri][:0]
		})

		// Phase 2: credit deliveries to their ops in canonical order and
		// bin them into per-destination inboxes (serial, so replay streams
		// and inbox order are worker-count invariant).
		st.touched = st.touched[:0]
		for k := range st.srcs {
			for _, d := range st.outs[k] {
				delivered++
				n.steps++
				op := st.owner[d.id]
				counts[op]++
				di := st.idx(d.to)
				if len(st.tapLists[st.tapOf[di]]) > 0 {
					st.replay[op] = append(st.replay[op], d)
				}
				if counts[op] > maxWork {
					// Scratch (inboxes, buckets, replay) is mid-round
					// dirty; drop the cached state so a later Apply
					// starts clean instead of silently swallowing stale
					// deliveries.
					n.invalidateDelta()
					return delivered, fmt.Errorf("simnet: no convergence after %d deliveries", counts[op])
				}
				if len(st.inbox[di]) == 0 {
					st.touched = append(st.touched, di)
					if n.cow {
						n.mutable(d.to)
					}
				}
				st.inbox[di] = append(st.inbox[di], d)
			}
		}

		// Phase 3: apply inboxes, sharded by destination router.
		for len(st.changed) < len(st.touched) {
			st.changed = append(st.changed, nil)
		}
		doChunked(len(st.touched), workers, func(w, k int) {
			di := st.touched[k]
			dst := n.routers[st.order[di]]
			// Apply every delivery first, then decide once per mutated
			// prefix: the candidate set after the whole inbox is what a
			// per-delivery decide sequence converges to, and transient
			// intermediate bests could only have triggered no-op
			// re-exports (see Router.ReceiveSharedNoDecide).
			dirty := st.changed[k][:0]
			for _, d := range st.inbox[di] {
				mutated := false
				if d.h != 0 {
					_, mutated = dst.ReceiveSharedNoDecide(&st.curs[w], d.from, d.id, d.h)
				} else {
					mutated = dst.WithdrawNoDecide(d.from, d.id)
				}
				if mutated {
					dirty = append(dirty, d.id)
				}
			}
			// Dedup by id: decide order is immaterial (prefixes are
			// independent) and the next round re-sorts canonically.
			slices.Sort(dirty)
			dirty = slices.Compact(dirty)
			ch := dirty[:0]
			for _, id := range dirty {
				if dst.Decide(id) {
					ch = append(ch, id)
				}
			}
			st.inbox[di] = st.inbox[di][:0]
			st.changed[k] = ch
		})

		// Phase 4: the changed prefixes become the next round's dirty
		// buckets directly — no global queue, no dedup map. Each touched
		// router appears once and its changed set is already deduped.
		st.next = st.next[:0]
		for k, di := range st.touched {
			if len(st.changed[k]) == 0 {
				continue
			}
			if len(st.items[di]) != 0 {
				// Defensive: buckets are empty between rounds.
				panic("simnet: delta bucket not drained")
			}
			st.items[di] = append(st.items[di], st.changed[k]...)
			st.next = append(st.next, di)
		}
		st.srcs, st.next = st.next, st.srcs
	}
	return delivered, nil
}

// doChunked runs fn(w, i) for i in [0, n) over at most workers
// goroutines, w being the running goroutine's index in [0, workers) —
// what lets fn use per-worker state (the route cursors) without a lock.
// The goroutines claim contiguous grains of about n/(8*workers) indices
// from a shared counter instead of streaming single indices through a
// channel (conc.Do): the delta engine's shards are fine-grained, so
// per-index dispatch costs more than the work on small rounds, and their
// cost is skewed (a tier-1 inbox dwarfs a stub's), so one fixed chunk
// per worker leaves the others idle. Chunking cannot change results —
// every fn(w, i) writes only slot i's state and worker w's scratch.
func doChunked(n, workers int, fn func(w, i int)) {
	if workers <= 1 || n <= 32 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	grain := max(1, n/(8*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+grain, n); i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}
