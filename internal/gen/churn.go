package gen

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// RTBHEpisode records one blackhole event generated during churn, the
// ground truth for Figure 5a's blackholing ECDF and the §7.6 sweep.
type RTBHEpisode struct {
	Victim    topo.ASN
	Provider  topo.ASN
	Community bgp.Community
	HostRoute netip.Prefix
}

// ChurnReport summarizes a month of routing dynamics.
type ChurnReport struct {
	Reannouncements int
	Retagged        int
	RTBH            []RTBHEpisode
	IXPTagged       int
}

// RunChurn simulates the observation month: re-announcement trains,
// community retagging, blackhole episodes, and IXP-community tagging. All
// of it lands in the collectors' update archives. Nothing it draws
// depends on network state, so it plans the month first (churnOps) and
// converges it with one Apply.
func (w *Internet) RunChurn() (*ChurnReport, error) {
	defer churnSecs.ObserveSince(time.Now())
	ops, rep := w.churnOps()
	if _, err := w.Net.Apply(ops...); err != nil {
		return rep, fmt.Errorf("gen: churn: %w", err)
	}
	return rep, nil
}

// churnOps draws the observation month's origination changes, in the
// order RunChurn applies them, and reports what it drew.
func (w *Internet) churnOps() ([]simnet.Op, *ChurnReport) {
	rep := &ChurnReport{}
	prefixes := w.AllPrefixes()
	if len(prefixes) == 0 {
		return nil, rep
	}
	var ops []simnet.Op
	announce := func(as topo.ASN, p netip.Prefix, tags ...bgp.Community) {
		ops = append(ops, simnet.Op{AS: as, Prefix: p, Communities: tags})
	}
	withdraw := func(as topo.ASN, p netip.Prefix) {
		ops = append(ops, simnet.Op{AS: as, Prefix: p, Withdraw: true})
	}

	// Flap/retag events.
	for e := 0; e < w.Params.ChurnEvents; e++ {
		pfx := prefixes[w.rng.Intn(len(prefixes))]
		origin, ok := w.OriginOf(pfx)
		if !ok {
			continue
		}
		withdraw(origin, pfx)
		tags := w.OriginTags[pfx]
		if w.rng.Float64() < 0.2 {
			tags = w.originTagSet(origin, w.asRNG(origin+topo.ASN(e)))
			w.OriginTags[pfx] = tags
			rep.Retagged++
		}
		announce(origin, pfx, tags...)
		rep.Reannouncements++
	}

	// RTBH episodes: a victim stub blackholes an attacked host at one of
	// its providers (legitimate DDoS mitigation — the baseline behaviour
	// whose community trails §4.3 measures). Two thirds target a /32 host
	// route (kept short by prefix-length hygiene); one third blackholes
	// the whole /24, whose community trails propagate like any route —
	// the long tail of Fig. 5a (the paper sees blackhole communities up
	// to 11 hops out).
	victims := w.rtbhCapableStubs()
	for e := 0; e < w.Params.RTBHEvents && len(victims) > 0; e++ {
		v := victims[w.rng.Intn(len(victims))]
		pfxs := w.Origins[v.victim]
		if len(pfxs) == 0 {
			continue
		}
		base := pfxs[0]
		if !base.Addr().Is4() {
			continue
		}
		if e%3 == 2 {
			// Whole-prefix blackhole: re-announce the /24 tagged.
			withdraw(v.victim, base)
			announce(v.victim, base, w.OriginTags[base].Clone().Add(v.community)...)
			rep.RTBH = append(rep.RTBH, RTBHEpisode{
				Victim: v.victim, Provider: v.provider, Community: v.community, HostRoute: base,
			})
			// Attack over: restore the plain announcement.
			withdraw(v.victim, base)
			announce(v.victim, base, w.OriginTags[base]...)
			continue
		}
		host := netip.PrefixFrom(netx.NthAddr(base, uint64(10+e)), 32).Masked()
		announce(v.victim, host, v.community)
		rep.RTBH = append(rep.RTBH, RTBHEpisode{
			Victim: v.victim, Provider: v.provider, Community: v.community, HostRoute: host,
		})
		// Mitigation over: withdraw again (half the time, so some RTBH
		// state survives into the RIB snapshot).
		if e%2 == 0 {
			withdraw(v.victim, host)
		}
	}

	// IXP community usage: members selectively announce via route servers.
	for i, rs := range w.RouteServers {
		members := rs.Members()
		if len(members) < 2 {
			continue
		}
		src := members[i%len(members)]
		dst := members[(i+1)%len(members)]
		pfxs := w.Origins[src]
		if len(pfxs) == 0 {
			continue
		}
		pfx := pfxs[0]
		withdraw(src, pfx)
		announce(src, pfx, w.OriginTags[pfx].Clone().Add(rs.AnnounceToCommunity(dst))...)
		rep.IXPTagged++
	}
	return ops, rep
}

type rtbhTarget struct {
	victim    topo.ASN
	provider  topo.ASN
	community bgp.Community
}

// rtbhCapableStubs finds originating stubs with at least one provider
// offering RTBH (sampled-origin presets leave most stubs prefixless —
// nothing to blackhole there).
func (w *Internet) rtbhCapableStubs() []rtbhTarget {
	var out []rtbhTarget
	for _, s := range w.stubASNs() {
		if len(w.Origins[s]) == 0 {
			continue
		}
		for _, prov := range w.Graph.Providers(s) {
			if bh, ok := w.Catalogs[prov].BlackholeCommunity(); ok {
				out = append(out, rtbhTarget{victim: s, provider: prov, community: bh})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].victim < out[j].victim })
	return out
}

// Registry is the blackhole-community ground truth plus decoys — the
// synthetic analogue of the verified/inferred lists from Giotsas et al.
// that §7.6 sweeps.
type Registry struct {
	// Verified are real RTBH triggers (provider offers the service).
	Verified []bgp.Community
	// Likely are plausible-looking decoys (value 666 on ASes without the
	// service) mirroring the 115 "likely" labels in the source dataset.
	Likely []bgp.Community
}

// All returns verified plus likely, verified first.
func (r *Registry) All() []bgp.Community {
	return append(append([]bgp.Community(nil), r.Verified...), r.Likely...)
}

func (w *Internet) buildRegistry() {
	reg := &Registry{}
	seen := map[bgp.Community]bool{}
	for _, asn := range append(w.tier1ASNs(), w.midASNs()...) {
		if bh, ok := w.Catalogs[asn].BlackholeCommunity(); ok {
			if !seen[bh] {
				reg.Verified = append(reg.Verified, bh)
				seen[bh] = true
			}
		} else {
			// Decoy: looks like a blackhole community, acts as nothing.
			c := bgp.C(uint16(asn), 666)
			if !seen[c] && w.asRNG(asn).Float64() < 0.3 {
				reg.Likely = append(reg.Likely, c)
				seen[c] = true
			}
		}
	}
	// The RFC 7999 well-known value is always in the verified list.
	reg.Verified = append(reg.Verified, bgp.CommunityBlackhole)
	sort.Slice(reg.Verified, func(i, j int) bool { return reg.Verified[i] < reg.Verified[j] })
	sort.Slice(reg.Likely, func(i, j int) bool { return reg.Likely[i] < reg.Likely[j] })
	w.Registry = reg
}
