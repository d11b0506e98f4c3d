package router

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// tableModel is the independent reference the slot tables are checked
// against: two plain maps keyed by prefix, full routes as values, the
// policy-free import (local-pref by relationship, plus a session's
// ingress tags) and the decision process written out once more. Key 0
// of in is the local origination.
type tableModel struct {
	self topo.ASN
	nbs  map[topo.ASN]topo.Rel
	tags map[topo.ASN][]bgp.Community
	in   map[netip.Prefix]map[topo.ASN]*policy.Route
	out  map[netip.Prefix]map[topo.ASN]*policy.Route
}

// receive imports rt from session from. An update the import rejects
// (here, a path through us) still replaces what the session sent before:
// RFC 4271 §9's implicit withdraw, with §9.1.2 excluding the looped
// route from the decision. An unknown session has nothing to replace.
func (m *tableModel) receive(from topo.ASN, rt *policy.Route) {
	rel, ok := m.nbs[from]
	if !ok {
		return
	}
	if rt.ASPath.Contains(uint32(m.self)) {
		m.put(m.in, rt.Prefix, from, nil)
		return
	}
	cp := rt.Clone()
	cp.NextHopAS, cp.FromRel = from, rel
	cp.LocalPref = map[topo.Rel]uint32{topo.RelCustomer: LocalPrefCustomer, topo.RelPeer: LocalPrefPeer, topo.RelProvider: LocalPrefProvider}[rel]
	for _, c := range m.tags[from] {
		cp.Communities = cp.Communities.Add(c)
	}
	m.put(m.in, rt.Prefix, from, cp)
}

func (m *tableModel) put(t map[netip.Prefix]map[topo.ASN]*policy.Route, p netip.Prefix, k topo.ASN, rt *policy.Route) {
	if rt == nil {
		delete(t[p], k)
		return
	}
	if t[p] == nil {
		t[p] = map[topo.ASN]*policy.Route{}
	}
	t[p][k] = rt
}

func (m *tableModel) best(p netip.Prefix) *policy.Route {
	var best *policy.Route
	for _, c := range m.in[p] {
		if best == nil || slices.Compare(rank(c), rank(best)) < 0 {
			best = c
		}
	}
	return best
}

// longestMatch is the data-plane answer for addr: the best route of the
// most specific universe prefix covering it that has one.
func (m *tableModel) longestMatch(universe []netip.Prefix, addr netip.Addr) *policy.Route {
	var best *policy.Route
	bits := -1
	for _, p := range universe {
		if rt := m.best(p); rt != nil && p.Contains(addr) && p.Bits() > bits {
			best, bits = rt, p.Bits()
		}
	}
	return best
}

// rank orders candidates: the smallest wins.
func rank(rt *policy.Route) []int64 {
	learned := int64(1)
	if rt.NextHopAS == 0 {
		learned = 0
	}
	return []int64{learned, -int64(rt.LocalPref), int64(rt.ASPath.HopLength()), int64(rt.Origin), int64(rt.MED), int64(rt.NextHopAS)}
}

// show renders every field the tables must preserve.
func show(rt *policy.Route) string {
	if rt == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s rel=%v origin=%v med=%d", rt, rt.FromRel, rt.Origin, rt.MED)
}

// modelWorld drives one router and its model through the same steps.
type modelWorld struct {
	t        *testing.T
	rng      *rand.Rand
	r        *Router
	m        *tableModel
	universe []netip.Prefix // canonical order
	nbs      []topo.ASN
	step     string
}

// modelTags tags the routes learned from 400, so its shared imports are
// rebuilt privately — under a new handle — every time they arrive.
var modelTags = map[topo.ASN][]bgp.Community{400: {bgp.C(65001, 400)}}

func newModelWorld(t *testing.T, seed int64) *modelWorld {
	w := &modelWorld{t: t, rng: rand.New(rand.NewSource(seed)), r: New(Config{ASN: 65001, IngressTags: modelTags}, NewRouteArena())}
	w.m = &tableModel{self: 65001, nbs: map[topo.ASN]topo.Rel{100: topo.RelProvider, 200: topo.RelCustomer, 300: topo.RelPeer, 400: topo.RelCustomer},
		tags: modelTags, in: map[netip.Prefix]map[topo.ASN]*policy.Route{}, out: map[netip.Prefix]map[topo.ASN]*policy.Route{}}
	for nb, rel := range w.m.nbs {
		w.r.AddNeighbor(nb, rel)
		w.nbs = append(w.nbs, nb)
	}
	slices.Sort(w.nbs)
	for i := 0; i < 48; i++ {
		w.universe = append(w.universe, netip.PrefixFrom(netx.V4(10, byte(i), 0, 0), 16+i%9))
	}
	for i := 0; i < 24; i++ {
		w.universe = append(w.universe, netx.MustPrefix(fmt.Sprintf("2001:db8:%x::/48", i)))
	}
	// Covering prefixes, so a longest-prefix match has somewhere to fall
	// back to.
	for _, p := range []string{"10.0.0.0/8", "10.0.0.0/12", "2001:db8::/32"} {
		w.universe = append(w.universe, netx.MustPrefix(p))
	}
	for i := range w.universe {
		w.universe[i] = w.universe[i].Masked()
	}
	slices.SortFunc(w.universe, netx.ComparePrefix)
	// Half the universe gets its id up front in shuffled order, so ids
	// never agree with canonical order; the rest is interned by whichever
	// call meets it first.
	for _, i := range w.rng.Perm(len(w.universe))[:len(w.universe)/2] {
		w.r.Table().Intern(w.universe[i])
	}
	return w
}

func (w *modelWorld) prefix() netip.Prefix { return w.universe[w.rng.Intn(len(w.universe))] }

func (w *modelWorld) route(p netip.Prefix, first topo.ASN) *policy.Route {
	path := []uint32{uint32(first)}
	for n := w.rng.Intn(4); n > 0; n-- {
		path = append(path, uint32(3000+w.rng.Intn(6)))
	}
	if w.rng.Intn(25) == 0 {
		path = append(path, 65001) // loops back through us: must be rejected
	}
	rt := policy.NewLocalRoute(p)
	rt.ASPath = bgp.Path(path...)
	rt.MED = uint32(w.rng.Intn(3))
	rt.Origin = bgp.Origin(w.rng.Intn(2))
	if w.rng.Intn(2) == 0 {
		rt.Communities = bgp.NewCommunitySet(bgp.C(uint16(first), uint16(w.rng.Intn(4))))
	}
	return rt
}

// from picks a session, now and then one the router does not have.
func (w *modelWorld) from() topo.ASN {
	if w.rng.Intn(20) == 0 {
		return 999
	}
	return w.nbs[w.rng.Intn(len(w.nbs))]
}

func (w *modelWorld) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("after %s: %s", w.step, fmt.Sprintf(format, args...))
}

// check compares every read API of the router with the model.
func (w *modelWorld) check() {
	w.t.Helper()
	w.checkRouter(w.r, w.dump())
}

// dump renders the model the way readBack reads a router back: lookups
// first, then the three walks, each in canonical order.
func (w *modelWorld) dump() string {
	var look, adjin, rib, prefixes strings.Builder
	bests := 0
	for _, p := range w.universe {
		best := w.m.best(p)
		fmt.Fprintf(&look, "best %s %s\n", p, show(best))
		fmt.Fprintf(&look, "fib %s %s\n", p.Addr(), show(w.m.longestMatch(w.universe, p.Addr())))
		if best != nil {
			bests++
			fmt.Fprintf(&rib, "rib %s\n", show(best))
			fmt.Fprintf(&prefixes, "prefix %s\n", p)
		}
		for _, nb := range w.nbs {
			fmt.Fprintf(&look, "adv %s %d %s\n", p, nb, show(w.m.out[p][nb]))
			if rt := w.m.in[p][nb]; rt != nil {
				fmt.Fprintf(&adjin, "adjin %s %d %s\n", p, nb, show(rt))
			}
		}
	}
	return look.String() + adjin.String() + rib.String() + prefixes.String() + fmt.Sprintf("count %d\n", bests)
}

func (w *modelWorld) checkRouter(r *Router, want string) {
	w.t.Helper()
	if got := readBack(r, w.universe, w.nbs); got != want {
		w.fail("router and model disagree (content or order):\n%s", lineDiff(got, want))
	}
}

// readBack renders every read API of r over universe — BestRoute,
// LookupFIB on each prefix's first address, Advertised per session,
// EachAdjIn, RIB, Prefixes and String()'s prefix count — in the layout
// dump gives the model. A lookup whose ok flag disagrees with its route
// says so in its line.
func readBack(r *Router, universe []netip.Prefix, nbs []topo.ASN) string {
	var b strings.Builder
	line := func(format string, rt *policy.Route, ok bool, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteString(" " + show(rt))
		if ok != (rt != nil) {
			fmt.Fprintf(&b, " ok=%v", ok)
		}
		b.WriteString("\n")
	}
	for _, p := range universe {
		rt, ok := r.BestRoute(p)
		line("best %s", rt, ok, p)
		rt, ok = r.LookupFIB(p.Addr())
		line("fib %s", rt, ok, p.Addr())
		for _, nb := range nbs {
			rt, ok = r.Advertised(nb, p)
			line("adv %s %d", rt, ok, p, nb)
		}
	}
	r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
		fmt.Fprintf(&b, "adjin %s %d %s\n", p, from, show(rt))
	})
	for _, rt := range r.RIB() {
		fmt.Fprintf(&b, "rib %s\n", show(rt))
	}
	for _, p := range r.Prefixes() {
		fmt.Fprintf(&b, "prefix %s\n", p)
	}
	var asn, nbCount, count int
	if _, err := fmt.Sscanf(r.String(), "AS%d (%d neighbors, %d prefixes)", &asn, &nbCount, &count); err != nil {
		fmt.Fprintf(&b, "String() = %q: %v\n", r.String(), err)
	}
	fmt.Fprintf(&b, "count %d\n", count)
	return b.String()
}

// lineDiff lists the lines only one side has; if there are none the two
// differ in order alone.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "  router only: %s\n", l)
		}
	}
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "  model only:  %s\n", l)
		}
	}
	if b.Len() == 0 {
		return fmt.Sprintf("  same lines, different order:\n--- router\n%s--- model\n%s", got, want)
	}
	return b.String()
}

// recordAll drives RecordAdvertisedAll with a random ascending subset of
// sessions and checks the emitted changes against the model's.
func (w *modelWorld) recordAll(p netip.Prefix) {
	var items []ExportItem
	var want []string
	for _, nb := range w.nbs {
		if w.rng.Intn(3) == 0 {
			continue
		}
		it := ExportItem{NB: nb, Dec: ExportSuppressedGaoRexford}
		var rt *policy.Route
		if w.rng.Intn(3) > 0 {
			rt = w.route(p, 65001)
			if old := w.m.out[p][nb]; old != nil && w.rng.Intn(2) == 0 {
				rt = old.Clone() // an equal re-advertisement under a new handle: no change
			}
			it.H, it.Dec = w.r.routes.Add(rt), ExportSent
		}
		items = append(items, it)
		if show(w.m.out[p][nb]) != show(rt) {
			want = append(want, fmt.Sprintf("%d %s", nb, show(rt)))
			w.m.put(w.m.out, p, nb, rt)
		}
	}
	var got []string
	w.r.RecordAdvertisedAll(w.r.Table().Intern(p), items, func(nb topo.ASN, h Handle) {
		var rt *policy.Route
		if ref := w.r.routes.Ref(h); ref.Valid() {
			v := ref.Route()
			rt = &v
		}
		got = append(got, fmt.Sprintf("%d %s", nb, show(rt)))
	})
	if !slices.Equal(got, want) {
		w.fail("RecordAdvertisedAll emitted %q, want %q", got, want)
	}
}

func (w *modelWorld) randomStep(sealed *[]sealedCopy) {
	p := w.prefix()
	switch op := w.rng.Intn(12); op {
	case 0:
		comms := []bgp.Community{bgp.C(65001, uint16(w.rng.Intn(3)))}
		w.step = fmt.Sprintf("Originate(%s, %v)", p, comms)
		w.r.Originate(p, comms...)
		lr := policy.NewLocalRoute(p)
		lr.Communities = bgp.NewCommunitySet(comms...)
		w.m.put(w.m.in, p, 0, lr)
	case 1:
		w.step = fmt.Sprintf("WithdrawLocal(%s)", p)
		if got, want := w.r.WithdrawLocal(p), w.m.in[p][0] != nil; got != want {
			w.fail("returned %v, want %v", got, want)
		}
		w.m.put(w.m.in, p, 0, nil)
	case 2, 3, 4:
		from := w.from()
		rt := w.route(p, from)
		before := show(w.m.best(p))
		w.m.receive(from, rt)
		var changed bool
		switch op {
		case 2:
			w.step = fmt.Sprintf("ReceiveShared(%d, %s)", from, show(rt))
			_, changed = w.r.ReceiveShared(from, rt)
		case 3:
			w.step = fmt.Sprintf("ReceiveUpdate(%d, %s)", from, show(rt))
			_, changed = w.r.ReceiveUpdate(from, rt)
		default:
			w.step = fmt.Sprintf("ReceiveSharedNoDecide+Decide(%d, %s)", from, show(rt))
			id := w.r.Table().Intern(p)
			w.r.ReceiveSharedNoDecide(nil, from, id, w.r.routes.Add(rt))
			changed = w.r.Decide(id)
		}
		if want := before != show(w.m.best(p)); changed != want {
			w.fail("best changed = %v, want %v", changed, want)
		}
	case 5, 6:
		from := w.from()
		w.step = fmt.Sprintf("ReceiveWithdraw(%d, %s)", from, p)
		before := show(w.m.best(p))
		w.m.put(w.m.in, p, from, nil)
		if got, want := w.r.ReceiveWithdraw(from, p), before != show(w.m.best(p)); got != want {
			w.fail("best changed = %v, want %v", got, want)
		}
	case 7, 8, 9:
		w.step = fmt.Sprintf("RecordAdvertisedAll(%s)", p)
		w.recordAll(p)
	case 10, 11:
		// Seal and clone, on the same arena or, the way a fork does, onto
		// a clone of it: either resolves every handle and id the sealed
		// original holds.
		w.r.Seal()
		*sealed = append(*sealed, sealedCopy{w.r, w.dump()})
		if op == 10 {
			w.step = "Seal+Clone"
			w.r = w.r.Clone(w.r.routes)
		} else {
			w.step = "Seal+Clone onto arena clone"
			w.r = w.r.Clone(w.r.routes.Clone())
		}
	}
}

type sealedCopy struct {
	r    *Router
	want string
}

// TestTablesMatchModel drives random operation sequences over 75 v4 and
// v6 prefixes, three of them covering others — some interned up front
// in shuffled order, the rest at first use — and after every step
// compares BestRoute, LookupFIB, Advertised, EachAdjIn, RIB, Prefixes
// and String()'s prefix count with the model. The sequences seal the
// router and go on with a Clone of it, on its own arena or on a clone of
// the arena, and session 400 is tagged, so its imports are rebuilt under
// a new handle on every arrival: equal content under two handles must
// never count as a change. Sealed originals left behind by Clone must
// still read as they did when they were sealed, whatever their clones
// did since.
func TestTablesMatchModel(t *testing.T) {
	steps := 500
	if testing.Short() {
		steps = 150
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := newModelWorld(t, seed)
		w.step = "start"
		w.check()

		// Fixed case: the only candidate of the highest id goes and comes
		// back (the slot's span is released and allocated again).
		hi := w.r.Table().At(uint32(len(w.r.Table().Prefixes()) - 1))
		for _, announce := range []bool{true, false, true} {
			if announce {
				rt := w.route(hi, 200)
				rt.ASPath = bgp.Path(200, 3001)
				w.step = fmt.Sprintf("ReceiveUpdate(200, %s) on the highest id", show(rt))
				w.r.ReceiveUpdate(200, rt)
				w.m.receive(200, rt)
			} else {
				w.step = fmt.Sprintf("ReceiveWithdraw(200, %s) on the highest id", hi)
				if !w.r.ReceiveWithdraw(200, hi) {
					w.fail("withdrawing the only candidate reported no change")
				}
				w.m.put(w.m.in, hi, 200, nil)
			}
			w.check()
		}

		// Fixed case: the same session sends the highest id again, looped
		// through us. The update still replaces the candidate it sent
		// before (RFC 4271 §9's implicit withdraw), so none is left.
		looped := w.route(hi, 200)
		looped.ASPath = bgp.Path(200, 65001, 3001)
		w.step = fmt.Sprintf("ReceiveUpdate(200, %s) on the highest id, looped", show(looped))
		if _, changed := w.r.ReceiveUpdate(200, looped); !changed {
			w.fail("a looped update from the best route's session reported no change")
		}
		w.m.receive(200, looped)
		w.check()

		// Fixed case: a tagged session's import is rebuilt in the arena
		// every time it arrives, so the same delivery twice stores equal
		// content under a new handle — the first is a new best, the second
		// no change.
		q := w.universe[0]
		if q == hi {
			q = w.universe[1]
		}
		rt := w.route(q, 400)
		rt.ASPath = bgp.Path(400, 3002)
		h, id := w.r.routes.Add(rt), w.r.Table().Intern(q)
		if w.m.best(q) != nil {
			w.fail("%s already has a best route: the case below proves nothing", q)
		}
		w.m.receive(400, rt)
		for i, want := range []bool{true, false} {
			w.step = fmt.Sprintf("ReceiveSharedNoDecide+Decide(400, %s) #%d on a tagged session", show(rt), i+1)
			w.r.ReceiveSharedNoDecide(nil, 400, id, h)
			if got := w.r.Decide(id); got != want {
				w.fail("best changed = %v, want %v", got, want)
			}
			w.check()
		}

		var sealed []sealedCopy
		for i := 0; i < steps; i++ {
			w.randomStep(&sealed)
			w.check()
		}
		w.step = "the whole sequence (sealed originals)"
		for _, s := range sealed {
			w.checkRouter(s.r, s.want)
		}
	}
}
