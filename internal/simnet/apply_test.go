package simnet_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/obs"
	"bgpworms/internal/policy"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// applyOps draws a seeded op list over a built world that exercises
// everything Apply's batching must get right: more ops than one window,
// same-prefix chains (withdraw, re-announce, re-tag) interleaved with
// other prefixes, a second origin for a prefix, no-op ops (re-announcing
// unchanged, withdrawing what was never announced), prefixes no router
// has seen yet, and host routes under announced /24s.
func applyOps(w *gen.Internet, rng *rand.Rand) []simnet.Op {
	type origin struct {
		as  topo.ASN
		pfx netip.Prefix
	}
	var owned []origin
	var origins []topo.ASN
	for as := range w.Origins {
		origins = append(origins, as)
	}
	slices.Sort(origins)
	for _, as := range origins {
		for _, p := range w.Origins[as] {
			owned = append(owned, origin{as, p})
		}
	}
	tags := func() []bgp.Community {
		var cs []bgp.Community
		for range rng.Intn(3) {
			cs = append(cs, bgp.C(uint16(64512+rng.Intn(4)), uint16(rng.Intn(1000))))
		}
		if reg := w.Registry.Verified; rng.Intn(4) == 0 && len(reg) > 0 {
			cs = append(cs, reg[rng.Intn(len(reg))])
		}
		return cs
	}
	var ops []simnet.Op
	for len(ops) < 200 {
		o := owned[rng.Intn(len(owned))]
		switch rng.Intn(7) {
		case 0: // a chain on one prefix
			ops = append(ops,
				simnet.Op{AS: o.as, Prefix: o.pfx, Withdraw: true},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: tags()},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: tags()})
		case 1: // re-announce unchanged: a no-op once converged
			cs := w.OriginTags[o.pfx]
			ops = append(ops, simnet.Op{AS: o.as, Prefix: o.pfx, Communities: cs},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: cs})
		case 2: // withdraw something never announced: a no-op
			ops = append(ops, simnet.Op{AS: o.as, Prefix: netx.PrefixV4(198, 18, byte(rng.Intn(4)), 0, 24), Withdraw: true})
		case 3: // a host route under the origin's /24
			if !o.pfx.Addr().Is4() {
				continue
			}
			host := netip.PrefixFrom(netx.NthAddr(o.pfx, uint64(1+rng.Intn(200))), 32)
			ops = append(ops, simnet.Op{AS: o.as, Prefix: host, Communities: tags()})
			if rng.Intn(2) == 0 {
				ops = append(ops, simnet.Op{AS: o.as, Prefix: host, Withdraw: true})
			}
		case 4: // a second origin for the prefix (MOAS), later retracted
			other := origins[rng.Intn(len(origins))]
			ops = append(ops, simnet.Op{AS: other, Prefix: o.pfx, Communities: tags()})
			if rng.Intn(2) == 0 {
				ops = append(ops, simnet.Op{AS: other, Prefix: o.pfx, Withdraw: true})
			}
		case 5: // a prefix the network has never seen
			ops = append(ops, simnet.Op{AS: o.as, Prefix: netx.PrefixV4(100, 64, byte(rng.Intn(256)), 0, 24), Communities: tags()})
		default: // one flap step
			ops = append(ops, simnet.Op{AS: o.as, Prefix: o.pfx, Withdraw: rng.Intn(2) == 0, Communities: w.OriginTags[o.pfx]})
		}
	}
	// Interleave: swap neighbours a little so chains on one prefix are
	// split by ops on others without losing their relative order.
	for i := 1; i < len(ops); i++ {
		if rng.Intn(3) == 0 && ops[i].Prefix.Masked() != ops[i-1].Prefix.Masked() {
			ops[i], ops[i-1] = ops[i-1], ops[i]
		}
	}
	return ops
}

// applyTranscript is everything a batched Apply must reproduce: every
// tap call in order, labelled with the tap that made it, the per-op
// delivery counts, and every RIB.
type applyTranscript struct {
	taps   []string
	counts []int
	ribs   string
}

// recordTaps registers a tap named name, subscribed to the receivers
// to (none: every receiver), that appends its calls to into.
func recordTaps(n *simnet.Network, name string, into *[]string, to ...topo.ASN) int {
	return n.Tap(func(from, to topo.ASN, p netip.Prefix, ref simnet.RouteRef) {
		var rt *policy.Route
		if ref.Valid() {
			v := ref.Route()
			rt = &v
		}
		*into = append(*into, name+": "+tapCall{from: from, to: to, p: p, rt: rt}.String())
	}, to...)
}

func ribDump(n *simnet.Network) string {
	loc, _ := networkTables(n)
	return strings.Join(loc, "\n")
}

// applyArm is one tap set TestApplyMatchesSerial registers on a built
// world, in order. Each tap subscribes to the receivers its to indexes
// in applyReceivers, or, with to nil, to every receiver. With untap set,
// the first tap is detached halfway through the ops.
type applyArm struct {
	name  string
	taps  []armTap
	untap bool
}

type armTap struct {
	name string
	to   []int
}

var applyArms = []applyArm{
	{name: "world", taps: []armTap{{"W", nil}}},
	{name: "scoped", taps: []armTap{{"A", []int{0, 1}}, {"B", []int{1, 2}}}, untap: true},
	{name: "mixed", taps: []armTap{{"A", []int{0}}, {"W", nil}, {"B", []int{1, 2}}}, untap: true},
}

// applyReceivers picks the receivers the scoped taps subscribe to: the
// first op's origin, the lowest ASN (a tier-1 in generated worlds)
// and a collector, whose own tap shares its deliveries.
func applyReceivers(w *gen.Internet, ops []simnet.Op) []topo.ASN {
	return []topo.ASN{ops[0].AS, w.Net.ASes()[0], w.Collectors[0].ASN}
}

// TestApplyMatchesSerial holds Apply to its contract on seeded random
// worlds at workers 1, 2 and 4: one Apply(ops...) fires exactly the tap
// calls and op ends (OnOp), returns exactly the per-op delivery counts,
// and leaves exactly the RIBs of applying the ops one at a time in slice
// order, and that one-at-a-time run equals the spec oracle's (spec_test.go). Each arm registers its
// own taps — one whole-world tap, receiver-scoped taps only, or a
// whole-world tap between two scoped ones — so every tap must see
// exactly the deliveries to its receivers, taps sharing a delivery in
// registration order. An arm that untaps a tap between two Applies
// must end that tap's stream there and leave the others as they were.
func TestApplyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260415))
	worlds := 3
	if testing.Short() {
		worlds = 1
	}
	for range worlds {
		cfg := randomCfg(rng)
		cfg.Churn, cfg.RTBH = 0, 0
		opSeed := rng.Int63()
		for _, arm := range applyArms {
			run := func(engine string, workers int, batched bool) applyTranscript {
				p := cfg.params()
				p.Engine, p.Workers = engine, workers
				w, err := gen.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				ops := applyOps(w, rand.New(rand.NewSource(opSeed)))
				rcv := applyReceivers(w, ops)
				var tr applyTranscript
				ids := make([]int, len(arm.taps))
				for i, tp := range arm.taps {
					var to []topo.ASN
					for _, k := range tp.to {
						to = append(to, rcv[k])
					}
					ids[i] = recordTaps(w.Net, tp.name, &tr.taps, to...)
				}
				// Each op's end goes into the transcript between its tap
				// calls and the next op's, at the op's index in ops.
				base := 0
				w.Net.OnOp(func(i int) { tr.taps = append(tr.taps, fmt.Sprintf("op %d ends", base+i)) })
				half := len(ops) / 2
				if batched {
					for k, part := range [][]simnet.Op{ops[:half], ops[half:]} {
						if k == 1 && arm.untap {
							w.Net.Untap(ids[0])
						}
						base = k * half
						counts, err := w.Net.Apply(part...)
						if err != nil {
							t.Fatal(err)
						}
						tr.counts = append(tr.counts, counts...)
					}
				} else {
					// The reference keeps every tap registered; what Untap
					// must end is the first tap's calls past the cut.
					cut := 0
					for i, op := range ops {
						if i == half {
							cut = len(tr.taps)
						}
						base = i
						c, err := w.Net.Apply(op)
						if err != nil {
							t.Fatal(err)
						}
						tr.counts = append(tr.counts, c...)
					}
					if arm.untap {
						gone, kept := arm.taps[0].name+": ", tr.taps[:cut]
						for _, c := range tr.taps[cut:] {
							if !strings.HasPrefix(c, gone) {
								kept = append(kept, c)
							}
						}
						tr.taps = kept
					}
				}
				tr.ribs = ribDump(w.Net)
				return tr
			}
			oracle := specApply(t, cfg, arm, opSeed)
			for _, workers := range []int{1, 2, 4} {
				serial, batched := run("delta", workers, false), run("delta", workers, true)
				where := fmt.Sprintf("{%s} %s workers=%d", cfg, arm.name, workers)
				for _, tp := range arm.taps {
					if !slices.ContainsFunc(serial.taps, func(c string) bool { return strings.HasPrefix(c, tp.name+": ") }) {
						t.Fatalf("%s: tap %s saw nothing", where, tp.name)
					}
				}
				sameApply(t, where+": batched vs serial", batched, serial)
				sameApply(t, where+": serial vs the spec oracle", serial, oracle)
			}
		}
	}
}

// specApply is the spec oracle's transcript of arm over cfg's world: it
// reads the planned world before any op, converges Build's ops (one
// announcement per origin prefix, the plan's first ops) without a tap,
// then the ops drawn from opSeed with the arm's taps.
func specApply(t *testing.T, cfg worldCfg, arm applyArm, opSeed int64) applyTranscript {
	t.Helper()
	p := cfg.params()
	w, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ops := applyOps(w, rand.New(rand.NewSource(opSeed)))
	rcv := applyReceivers(w, ops)
	plan, err := gen.PlanArchives(p)
	if err != nil {
		t.Fatal(err)
	}
	n, planOps, err := plan.Fork()
	if err != nil {
		t.Fatal(err)
	}
	s := readSpecWorld(n)
	for _, op := range planOps[:len(w.AllPrefixes())] {
		s.apply(op)
	}
	var tr applyTranscript
	for i, op := range ops {
		ds := s.apply(op)
		tr.counts = append(tr.counts, len(ds))
		for _, d := range ds {
			for k, tp := range arm.taps {
				observes := tp.to == nil || slices.ContainsFunc(tp.to, func(r int) bool { return rcv[r] == d.to })
				if observes && !(k == 0 && arm.untap && i >= len(ops)/2) {
					tr.taps = append(tr.taps, tp.name+": "+tapCall{from: d.from, to: d.to, p: d.p, rt: d.rt}.String())
				}
			}
		}
		tr.taps = append(tr.taps, fmt.Sprintf("op %d ends", i))
	}
	loc, _ := s.tables()
	tr.ribs = strings.Join(loc, "\n")
	return tr
}

func sameApply(t *testing.T, where string, got, want applyTranscript) {
	t.Helper()
	if !slices.Equal(got.counts, want.counts) {
		t.Fatalf("%s: per-op deliveries\n got %v\nwant %v", where, got.counts, want.counts)
	}
	if i := firstDiff(got.taps, want.taps); i >= 0 {
		t.Fatalf("%s: tap call %d of %d/%d differs\n got %s\nwant %s", where, i,
			len(got.taps), len(want.taps), at(got.taps, i), at(want.taps, i))
	}
	if got.ribs != want.ribs {
		t.Fatalf("%s: RIBs differ", where)
	}
}

// TestTapReplayCountsObservedDeliveries pins simnet_tap_replayed_total
// on a tiny world: with collectors as the only taps, the delta engine
// buffers exactly the deliveries addressed to them, as counted by a
// whole-world tap on a run of its own, at any worker count; once a
// whole-world tap registers, it buffers every delivery.
func TestTapReplayCountsObservedDeliveries(t *testing.T) {
	replayed := obs.Default.Counter("simnet_tap_replayed_total", "")
	build := func(workers int) (*gen.Internet, []simnet.Op) {
		p := tinyCfg.params()
		p.Workers = workers
		w, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		return w, applyOps(w, rand.New(rand.NewSource(1)))
	}
	w, ops := build(1)
	collectors := make(map[topo.ASN]bool)
	for _, c := range w.Collectors {
		collectors[c.ASN] = true
	}
	toCollectors := 0
	w.Net.Tap(func(_, to topo.ASN, _ netip.Prefix, _ simnet.RouteRef) {
		if collectors[to] {
			toCollectors++
		}
	})
	if _, err := w.Net.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		w, ops := build(workers)
		before, steps := replayed.Value(), w.Net.Steps()
		if _, err := w.Net.Apply(ops...); err != nil {
			t.Fatal(err)
		}
		got, delivered := replayed.Value()-before, w.Net.Steps()-steps
		if got != uint64(toCollectors) || toCollectors == 0 || toCollectors >= delivered {
			t.Fatalf("workers=%d: %d buffered for replay, want the %d of %d deliveries addressed to collectors", workers, got, toCollectors, delivered)
		}
		w.Net.Tap(func(topo.ASN, topo.ASN, netip.Prefix, simnet.RouteRef) {})
		before, steps = replayed.Value(), w.Net.Steps()
		if _, err := w.Net.Apply(applyOps(w, rand.New(rand.NewSource(2)))...); err != nil {
			t.Fatal(err)
		}
		if got, want := replayed.Value()-before, w.Net.Steps()-steps; got != uint64(want) {
			t.Fatalf("workers=%d: with a whole-world tap %d buffered for replay, want all %d deliveries", workers, got, want)
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) || i >= len(a) || i >= len(b) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestApplyBoundsEachOp: the convergence bound counts deliveries per op,
// never per batch. A bound every op fits under lets a batch whose total
// exceeds it converge; one an op exceeds fails the batch with the error
// the op raises on its own.
func TestApplyBoundsEachOp(t *testing.T) {
	build := func(max int) (*gen.Internet, []simnet.Op) {
		p := tinyCfg.params()
		p.Workers = 2
		w, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		w.Net.SetMaxDeliveries(max)
		var ops []simnet.Op
		for _, as := range w.StubASes() {
			for _, pfx := range w.Origins[as] {
				ops = append(ops, simnet.Op{AS: as, Prefix: pfx, Withdraw: true})
			}
		}
		return w, ops
	}
	w, ops := build(0)
	counts, err := w.Net.Apply(ops...)
	if err != nil {
		t.Fatal(err)
	}
	most, total := slices.Max(counts), 0
	for _, c := range counts {
		total += c
	}
	if total <= most {
		t.Fatalf("one op carries all %d deliveries; nothing to bound per op", total)
	}
	w, ops = build(most)
	if _, err := w.Net.Apply(ops...); err != nil {
		t.Fatalf("bound %d fits every op, yet the batch of %d deliveries failed: %v", most, total, err)
	}
	w, ops = build(most - 1)
	var serialErr error
	for _, op := range ops {
		if _, serialErr = w.Net.Apply(op); serialErr != nil {
			break
		}
	}
	w, ops = build(most - 1)
	_, batchErr := w.Net.Apply(ops...)
	if serialErr == nil || batchErr == nil || batchErr.Error() != serialErr.Error() {
		t.Fatalf("bound %d: batched error %v, serial error %v", most-1, batchErr, serialErr)
	}
}

// TestArenaRoutesCountIsWorkerInvariant pins
// simnet_route_arena_routes_total: an Apply adds the routes its windows
// stored — export classes and tagged imports built on the engine's
// workers as well as the originations — and the count is the same at
// any worker count, however the workers' cursors split their blocks of
// handles. The two intern counts published beside it are worker
// invariant too: which paths and community sets a window builds does not
// depend on scheduling, only which worker interns one first, and so its
// id. Both hold for a whole build (the network's tables) and for each
// Apply (simnet_interned_paths_total and
// simnet_interned_community_sets_total).
func TestArenaRoutesCountIsWorkerInvariant(t *testing.T) {
	counters := []*obs.Counter{
		obs.Default.Counter("simnet_route_arena_routes_total", ""),
		obs.Default.Counter("simnet_interned_paths_total", ""),
		obs.Default.Counter("simnet_interned_community_sets_total", ""),
	}
	var wantBuilt [2]int64
	var want []uint64
	for _, workers := range []int{1, 2, 4} {
		p := tinyCfg.params()
		p.Workers = workers
		w, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		var built [2]int64
		built[0], built[1] = w.Net.Routes().Interned()
		ops := applyOps(w, rand.New(rand.NewSource(1)))
		before := make([]uint64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		if _, err := w.Net.Apply(ops...); err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(counters))
		for i, c := range counters {
			got[i] = c.Value() - before[i]
		}
		t.Logf("workers=%d: built %v paths and community sets; Apply stored %v routes, paths, community sets", workers, built, got)
		if workers == 1 {
			wantBuilt, want = built, got
		}
		if built != wantBuilt || built[0] == 0 || built[1] == 0 {
			t.Fatalf("workers=%d: the built world interned %v paths and community sets, want %v at one worker, none zero", workers, built, wantBuilt)
		}
		if !slices.Equal(got, want) || got[0] <= uint64(len(ops)) {
			t.Fatalf("workers=%d: Apply stored %d routes and interned %d paths and %d community sets for %d ops, want %v at one worker and more than one route per op",
				workers, got[0], got[1], got[2], len(ops), want)
		}
	}
}
