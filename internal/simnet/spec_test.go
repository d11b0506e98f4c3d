package simnet_test

// The spec oracle: a reference world written from RFC 4271 §9 and the
// repo's documented policy rules, against which the delta engine's tap
// streams, per-op delivery counts, op ends and final tables are held.
// It shares no code with the engine or the router: it reads the world
// as data before any op (each router's Config, its sessions and what
// each neighbor is to it) and from then on keeps plain maps of
// policy.Routes, converging one prefix at a time, since no routing
// decision for a prefix reads another prefix's state.
//
// What it models, rule by rule:
//   - RFC 4271 §9: an UPDATE replaces what its session sent before. An
//     update the import rejects therefore withdraws the session's
//     candidate (implicit withdraw), and §9.1.2 keeps a route whose path
//     holds the receiver out of the decision.
//   - Import: RTBH (the AS's catalog community, or RFC 7999's BLACKHOLE
//     at an AS that offers RTBH, no coarser than BlackholeMinLen; local
//     preference 200, NO_EXPORT added where configured), origin
//     validation of customer routes against CustomerPrefixes (skipped for
//     blackhole routes under BlackholeBeforeValidate, §6.3), the
//     too-specific limit (MaxPrefixLen for IPv4, /48 for IPv6, blackhole
//     routes exempt), local preference by relationship (customer 140,
//     peer 120, else 100) and by local-pref services, and the session's
//     ingress tags (IOS adds at most 32).
//   - Decision: the AS's own origination, then higher local preference,
//     shorter AS path, lower origin, lower MED, lower neighbor ASN.
//   - Export: never back to the route's neighbor; Gao-Rexford (routes
//     from peers and providers go to customers only, except at a route
//     server, which reflects everything); NO_ADVERTISE, NO_EXPORT and
//     NOPEER toward peers; the catalog's services in catalog order
//     (no-export, selective announcement, prepending); the AS's own hop
//     (none at a transparent route server); local preference reset; and
//     communities stripped at IOS sessions without send-community or
//     filtered by the session's propagation mode.
//   - Delivery: an AS whose best route changed advertises to every
//     session, and a session carries only a change from what it last
//     carried. Deliveries go in the canonical order: per op, rounds; in
//     a round, exporting ASes ascending, then their neighbors ascending;
//     every AS exports from its table as the round begins and takes its
//     round's deliveries after all exports, in that order.

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// specWorld is the reference world: what each AS is configured to do,
// its sessions, and per prefix its candidates and what it last sent.
type specWorld struct {
	asns []topo.ASN // ascending
	cfg  map[topo.ASN]*router.Config
	rels map[topo.ASN]map[topo.ASN]topo.Rel // what each neighbor is to the AS
	nbs  map[topo.ASN][]topo.ASN            // sessions to modelled ASes, ascending
	pfx  map[netip.Prefix]*specPrefix
	// rejected names each candidate an update the import rejected
	// withdrew, since the last apply began.
	rejected []string
}

// specPrefix is every AS's state for one prefix: its candidates by
// sender, 0 being its own origination, and what it last sent each
// neighbor.
type specPrefix struct {
	in   map[topo.ASN]map[topo.ASN]*policy.Route
	sent map[topo.ASN]map[topo.ASN]*policy.Route
}

// specDelivery is one update crossing a session; rt is nil for a
// withdrawal.
type specDelivery struct {
	from, to topo.ASN
	p        netip.Prefix
	rt       *policy.Route
}

// readSpecWorld reads n, a network no op has touched, as data.
func readSpecWorld(n *simnet.Network) *specWorld {
	s := &specWorld{
		cfg:  map[topo.ASN]*router.Config{},
		rels: map[topo.ASN]map[topo.ASN]topo.Rel{},
		nbs:  map[topo.ASN][]topo.ASN{},
		pfx:  map[netip.Prefix]*specPrefix{},
	}
	for _, a := range n.ASes() {
		r := n.Router(a)
		cfg := *r.Config()
		s.asns = append(s.asns, a)
		s.cfg[a] = &cfg
		s.rels[a] = map[topo.ASN]topo.Rel{}
		for _, nb := range r.Neighbors() {
			s.rels[a][nb] = r.NeighborRel(nb)
		}
	}
	s.wire()
	return s
}

// wire lists each AS's sessions to modelled ASes: a session to a node
// without a router carries nothing.
func (s *specWorld) wire() {
	for _, a := range s.asns {
		s.nbs[a] = s.nbs[a][:0]
		for nb := range s.rels[a] {
			if s.cfg[nb] != nil {
				s.nbs[a] = append(s.nbs[a], nb)
			}
		}
		slices.Sort(s.nbs[a])
	}
}

// connect adds the session a-b, rel being what b is to a, the way
// Network.Connect does: it carries nothing until an end's best route
// changes.
func (s *specWorld) connect(a, b topo.ASN, rel topo.Rel) {
	back := topo.RelPeer
	switch rel {
	case topo.RelCustomer:
		back = topo.RelProvider
	case topo.RelProvider:
		back = topo.RelCustomer
	}
	s.rels[a][b], s.rels[b][a] = rel, back
	s.wire()
}

func (s *specWorld) prefix(p netip.Prefix) *specPrefix {
	st := s.pfx[p]
	if st == nil {
		st = &specPrefix{in: map[topo.ASN]map[topo.ASN]*policy.Route{}, sent: map[topo.ASN]map[topo.ASN]*policy.Route{}}
		s.pfx[p] = st
	}
	return st
}

// put sets (or, with rt nil, removes) t[a][k].
func put(t map[topo.ASN]map[topo.ASN]*policy.Route, a, k topo.ASN, rt *policy.Route) {
	if rt == nil {
		delete(t[a], k)
		return
	}
	if t[a] == nil {
		t[a] = map[topo.ASN]*policy.Route{}
	}
	t[a][k] = rt
}

// best runs the decision process over a's candidates.
func (st *specPrefix) best(a topo.ASN) *policy.Route {
	var best *policy.Route
	for _, c := range st.in[a] {
		if best == nil || specBetter(c, best) {
			best = c
		}
	}
	return best
}

func specBetter(x, y *policy.Route) bool {
	if xl, yl := x.NextHopAS == 0, y.NextHopAS == 0; xl != yl {
		return xl
	}
	if x.LocalPref != y.LocalPref {
		return x.LocalPref > y.LocalPref
	}
	if xl, yl := x.ASPath.HopLength(), y.ASPath.HopLength(); xl != yl {
		return xl < yl
	}
	if x.Origin != y.Origin {
		return x.Origin < y.Origin
	}
	if x.MED != y.MED {
		return x.MED < y.MED
	}
	return x.NextHopAS < y.NextHopAS
}

// sameRoute compares two routes on everything an AS would show or send.
func sameRoute(x, y *policy.Route) bool {
	if x == nil || y == nil {
		return x == y
	}
	return x.NextHopAS == y.NextHopAS && x.LocalPref == y.LocalPref && x.Blackhole == y.Blackhole &&
		x.Origin == y.Origin && x.MED == y.MED && slices.Equal(x.Communities, y.Communities) &&
		x.ASPath.EqualSequence(y.ASPath)
}

// apply makes op's origination change and converges its prefix,
// returning the deliveries in canonical order.
func (s *specWorld) apply(op simnet.Op) []specDelivery {
	p := op.Prefix.Masked()
	st := s.prefix(p)
	before := st.best(op.AS)
	var local *policy.Route
	if !op.Withdraw {
		local = policy.NewLocalRoute(p)
		local.Communities = bgp.NewCommunitySet(op.Communities...)
	}
	put(st.in, op.AS, 0, local)
	s.rejected = s.rejected[:0]
	var out []specDelivery
	var dirty []topo.ASN
	if !sameRoute(before, st.best(op.AS)) {
		dirty = []topo.ASN{op.AS}
	}
	for len(dirty) > 0 {
		var round []specDelivery
		for _, a := range dirty {
			for _, nb := range s.nbs[a] {
				rt := s.export(st, p, a, nb)
				if sameRoute(st.sent[a][nb], rt) {
					continue
				}
				put(st.sent, a, nb, rt)
				round = append(round, specDelivery{from: a, to: nb, p: p, rt: rt})
			}
		}
		out = append(out, round...)
		bests := map[topo.ASN]*policy.Route{}
		for _, d := range round {
			if _, ok := bests[d.to]; !ok {
				bests[d.to] = st.best(d.to)
			}
			s.receive(st, d)
		}
		dirty = dirty[:0]
		for a, b := range bests {
			if !sameRoute(b, st.best(a)) {
				dirty = append(dirty, a)
			}
		}
		slices.Sort(dirty)
	}
	return out
}

// export is what a sends nb for p, nil for nothing.
func (s *specWorld) export(st *specPrefix, p netip.Prefix, a, nb topo.ASN) *policy.Route {
	best := st.best(a)
	if best == nil || best.NextHopAS == nb {
		return nil
	}
	cfg, rel := s.cfg[a], s.rels[a][nb]
	fromCustomerOrLocal := best.NextHopAS == 0 || best.FromRel == topo.RelCustomer
	if !fromCustomerOrLocal && rel != topo.RelCustomer && !cfg.ReflectAll {
		return nil
	}
	cs := best.Communities
	if cs.Has(bgp.CommunityNoAdvertise) || cs.Has(bgp.CommunityNoExport) || cs.Has(bgp.CommunityNoPeer) && rel == topo.RelPeer {
		return nil
	}
	prepend, decided, allowed, targeted := 0, false, true, false
	for _, svc := range cfg.Catalog.Active(cs, fromCustomerOrLocal) {
		switch svc.Kind {
		case policy.SvcNoExport:
			return nil
		case policy.SvcAnnounceTo, policy.SvcNoAnnounceTo:
			targeted = targeted || svc.Kind == policy.SvcAnnounceTo
			if !decided && topo.ASN(svc.Param) == nb {
				decided, allowed = true, svc.Kind == policy.SvcAnnounceTo
			}
		case policy.SvcPrepend:
			if prepend == 0 {
				prepend = int(svc.Param)
			}
		}
	}
	if !allowed || !decided && targeted {
		return nil
	}
	hops := 1 + prepend
	if cfg.Transparent {
		hops = prepend
	}
	if cfg.Vendor == router.VendorCisco && !cfg.SendCommunity[nb] {
		cs = nil
	} else {
		mode := cfg.Propagation
		if m, ok := cfg.PropagationPerNeighbor[nb]; ok {
			mode = m
		}
		cs = specPropagate(mode, uint16(a), cs)
	}
	return &policy.Route{
		Prefix: p, ASPath: specPrepend(best.ASPath, uint32(a), hops), Communities: cs,
		Origin: best.Origin, MED: best.MED, LocalPref: policy.DefaultLocalPref, NextHopAS: a,
	}
}

// receive applies d at its receiver: the session's candidate becomes
// what the import makes of the update, or goes.
func (s *specWorld) receive(st *specPrefix, d specDelivery) {
	rt := s.importRoute(d)
	if old := st.in[d.to][d.from]; rt == nil && d.rt != nil && old != nil {
		s.rejected = append(s.rejected, fmt.Sprintf("AS%d's candidate %s from AS%d", d.to, specLine(old), d.from))
	}
	put(st.in, d.to, d.from, rt)
}

// importRoute is the candidate d leaves at its receiver, nil when it is a
// withdrawal or the import rejects it.
func (s *specWorld) importRoute(d specDelivery) *policy.Route {
	in, a := d.rt, d.to
	if in == nil || in.ASPath.Contains(uint32(a)) {
		return nil
	}
	cfg, rel := s.cfg[a], s.rels[a][d.from]
	fromCustomer := rel == topo.RelCustomer
	cs := in.Communities
	tagged := false
	if c, offers := cfg.Catalog.BlackholeCommunity(); offers {
		tagged = (cs.Has(c) || cs.Has(bgp.CommunityBlackhole)) && (cfg.BlackholeMinLen == 0 || d.p.Bits() >= cfg.BlackholeMinLen)
	}
	valid := !cfg.ValidateOrigin || !fromCustomer || cfg.CustomerPrefixes[d.from].Matches(d.p)
	bh := tagged && (valid || cfg.BlackholeBeforeValidate)
	if !bh && !valid {
		return nil
	}
	if limit := cfg.MaxPrefixLen; !bh && limit > 0 {
		if d.p.Addr().Is6() {
			limit = 48
		}
		if d.p.Bits() > limit {
			return nil
		}
	}
	lp := map[topo.Rel]uint32{topo.RelCustomer: 140, topo.RelPeer: 120}[rel]
	if lp == 0 {
		lp = 100
	}
	if bh {
		lp = 200
	}
	for _, svc := range cfg.Catalog.Active(cs, fromCustomer) {
		if svc.Kind == policy.SvcLocalPref {
			lp = svc.Param
		}
	}
	cs = cs.Clone()
	if bh && cfg.BlackholeAddNoExport {
		cs = cs.Add(bgp.CommunityNoExport)
	}
	for i, tag := range cfg.IngressTags[d.from] {
		if cfg.Vendor == router.VendorCisco && i >= 32 {
			break
		}
		cs = cs.Add(tag)
	}
	return &policy.Route{
		Prefix: d.p, ASPath: in.ASPath, Communities: cs, Origin: in.Origin, MED: in.MED,
		LocalPref: lp, NextHopAS: d.from, FromRel: rel, Blackhole: bh,
	}
}

// specLine renders a route with every field the tables keep.
func specLine(rt *policy.Route) string {
	return fmt.Sprintf("%s rel=%v origin=%v med=%d", rt, rt.FromRel, rt.Origin, rt.MED)
}

// tapCall is one call of a whole-world tap, or with end set the end of
// op end-1 (OnOp).
type tapCall struct {
	from, to topo.ASN
	p        netip.Prefix
	rt       *policy.Route // nil for a withdrawal
	end      int
}

func (c tapCall) same(d tapCall) bool {
	return c.from == d.from && c.to == d.to && c.p == d.p && c.end == d.end && sameRoute(c.rt, d.rt)
}

func (c tapCall) String() string {
	switch {
	case c.end > 0:
		return fmt.Sprintf("op %d ends", c.end-1)
	case c.rt == nil:
		return fmt.Sprintf("%d>%d %s withdraw", c.from, c.to, c.p)
	}
	return fmt.Sprintf("%d>%d %s %s", c.from, c.to, c.p, specLine(c.rt))
}

// tables renders every AS's Loc-RIB and Adj-RIB-In (the candidates it
// learned), ASes ascending, prefixes in canonical order, senders
// ascending.
func (s *specWorld) tables() (loc, adjIn []string) {
	prefixes := make([]netip.Prefix, 0, len(s.pfx))
	for p := range s.pfx {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, netx.ComparePrefix)
	for _, a := range s.asns {
		for _, p := range prefixes {
			st := s.pfx[p]
			if b := st.best(a); b != nil {
				loc = append(loc, fmt.Sprintf("AS%d %s", a, specLine(b)))
			}
			from := make([]topo.ASN, 0, len(st.in[a]))
			for f := range st.in[a] {
				if f != 0 {
					from = append(from, f)
				}
			}
			slices.Sort(from)
			for _, f := range from {
				adjIn = append(adjIn, fmt.Sprintf("AS%d %s from AS%d", a, specLine(st.in[a][f]), f))
			}
		}
	}
	return loc, adjIn
}

// networkTables renders n's tables the way specWorld.tables does.
func networkTables(n *simnet.Network) (loc, adjIn []string) {
	for _, a := range n.ASes() {
		r := n.Router(a)
		for _, rt := range r.RIB() {
			loc = append(loc, fmt.Sprintf("AS%d %s", a, specLine(rt)))
		}
		r.EachAdjIn(func(_ netip.Prefix, from topo.ASN, rt *policy.Route) {
			adjIn = append(adjIn, fmt.Sprintf("AS%d %s from AS%d", a, specLine(rt), from))
		})
	}
	return loc, adjIn
}

// tableDiff names the first line only one side holds ("" when both hold
// the same lines in the same order).
func tableDiff(what string, got, want []string) string {
	g, w := map[string]bool{}, map[string]bool{}
	for _, l := range got {
		g[l] = true
	}
	for _, l := range want {
		w[l] = true
	}
	for _, l := range got {
		if !w[l] {
			return fmt.Sprintf("%s: the engine holds %s, which the spec does not", what, l)
		}
	}
	for _, l := range want {
		if !g[l] {
			return fmt.Sprintf("%s: the spec holds %s, which the engine does not", what, l)
		}
	}
	if !slices.Equal(got, want) {
		return what + ": the same lines in another order"
	}
	return ""
}

// streamDiff reports the first tap call on which got departs from want.
func streamDiff(got, want []tapCall) string {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || !got[i].same(want[i]) {
			call := func(s []tapCall) string {
				if i < len(s) {
					return s[i].String()
				}
				return "<none>"
			}
			return fmt.Sprintf("tap call %d of %d/%d differs\n got %s\nwant %s", i, len(got), len(want), call(got), call(want))
		}
	}
	return ""
}

// specPrepend returns a new path with asn prepended n times as part of
// the leading sequence segment, a new one when the path starts with an
// AS_SET or is empty.
func specPrepend(p bgp.ASPath, asn uint32, n int) bgp.ASPath {
	if n <= 0 {
		return p.Clone()
	}
	var head []uint32 // the leading sequence the repeats join, if there is one
	rest := p
	if len(p) > 0 && p[0].Type == bgp.SegmentSequence {
		head, rest = p[0].ASNs, p[1:]
	}
	lead := make([]uint32, n, n+len(head))
	for i := range lead {
		lead[i] = asn
	}
	out := make(bgp.ASPath, 1, 1+len(rest))
	out[0] = bgp.PathSegment{Type: bgp.SegmentSequence, ASNs: append(lead, head...)}
	for _, seg := range rest {
		out = append(out, bgp.PathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)})
	}
	return out
}

// specPropagate returns the communities of cs that an export from the AS
// with 16-bit community identity self carries under mode, as a new set.
func specPropagate(mode policy.PropagationMode, self uint16, cs bgp.CommunitySet) bgp.CommunitySet {
	var out bgp.CommunitySet
	for _, c := range cs {
		if mode.Keeps(self, c) {
			out = append(out, c)
		}
	}
	return out
}

func TestSpecPrepend(t *testing.T) {
	p := bgp.Path(2, 1)
	q := specPrepend(p, 3, 3)
	if got, want := q.Sequence(), []uint32{3, 3, 3, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("seq=%v want %v", got, want)
	}
	// Original untouched.
	if p.HopLength() != 2 {
		t.Fatal("specPrepend mutated its input")
	}
	// Prepend onto empty and onto leading set.
	if e := specPrepend(nil, 7, 2); e.HopLength() != 2 || e.Origin() != 7 {
		t.Fatalf("prepend onto empty: %v", e)
	}
	withSet := bgp.ASPath{{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}}}
	ps := specPrepend(withSet, 9, 1)
	if ps[0].Type != bgp.SegmentSequence || ps[0].ASNs[0] != 9 {
		t.Fatalf("prepend onto set: %v", ps)
	}
	if n := specPrepend(bgp.Path(1), 2, 0); n.HopLength() != 1 {
		t.Fatal("prepend zero should be identity")
	}
}

// Property: prepending a, n times, increases HopLength by n and keeps the
// origin.
func TestSpecPrependProperty(t *testing.T) {
	f := func(asns []uint32, a uint32, n uint8) bool {
		k := int(n % 8)
		p := bgp.Path(asns...)
		q := specPrepend(p, a, k)
		return q.HopLength() == p.HopLength()+k && q.Origin() == p.Origin() || (len(asns) == 0 && q.Origin() == a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecPropagationModes(t *testing.T) {
	cs := bgp.NewCommunitySet(bgp.C(100, 1), bgp.C(200, 2), bgp.CommunityBlackhole)
	if got := specPropagate(policy.PropForwardAll, 100, cs); len(got) != 3 {
		t.Fatalf("forward-all: %v", got)
	}
	if got := specPropagate(policy.PropStripAll, 100, cs); len(got) != 0 {
		t.Fatalf("strip-all: %v", got)
	}
	got := specPropagate(policy.PropActStripOwn, 100, cs)
	if got.Has(bgp.C(100, 1)) || !got.Has(bgp.C(200, 2)) || !got.Has(bgp.CommunityBlackhole) {
		t.Fatalf("act-strip-own: %v", got)
	}
	got = specPropagate(policy.PropStripForeign, 100, cs)
	if !got.Has(bgp.C(100, 1)) || got.Has(bgp.C(200, 2)) || !got.Has(bgp.CommunityBlackhole) {
		t.Fatalf("strip-foreign: %v", got)
	}
	// Original untouched.
	if len(cs) != 3 {
		t.Fatal("specPropagate mutated its input")
	}
}
