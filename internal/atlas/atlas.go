// Package atlas models a RIPE-Atlas-style active measurement platform over
// the simulated data plane: a fixed, randomly drawn set of vantage points
// that can ping and traceroute targets, with per-vantage-point result
// diffing — the §7.6 protocol ("issue Atlas ICMP probes from 200 vantage
// points toward p ... re-issue the same probes ... compare responses on a
// per-vantage point basis").
package atlas

import (
	"math/rand"
	"net/netip"
	"sort"

	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// VantagePoint is one measurement probe, hosted inside an AS.
type VantagePoint struct {
	ID int
	AS topo.ASN
}

// Platform is a set of vantage points bound to a network.
type Platform struct {
	net *simnet.Network
	vps []VantagePoint
}

// New draws count vantage points from candidates using a deterministic
// seed; the set stays "constant across all measurements" as in §7.6. When
// count exceeds the candidate pool, every candidate hosts one probe.
func New(n *simnet.Network, candidates []topo.ASN, count int, seed int64) *Platform {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]topo.ASN(nil), candidates...)
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if count > len(pool) {
		count = len(pool)
	}
	p := &Platform{net: n}
	for i := 0; i < count; i++ {
		p.vps = append(p.vps, VantagePoint{ID: i, AS: pool[i]})
	}
	return p
}

// VPs returns the vantage points in ID order.
func (p *Platform) VPs() []VantagePoint { return p.vps }

// PingResult is one measurement batch: per-VP reachability of a target.
type PingResult struct {
	Target    netip.Addr
	Reachable map[int]bool // VP ID -> responded
}

// PingAll probes target from every vantage point.
func (p *Platform) PingAll(target netip.Addr) PingResult {
	res := PingResult{Target: target, Reachable: make(map[int]bool, len(p.vps))}
	for _, vp := range p.vps {
		res.Reachable[vp.ID] = p.net.Ping(vp.AS, target)
	}
	return res
}

// ResponsiveCount returns how many VPs reached the target.
func (r PingResult) ResponsiveCount() int {
	n := 0
	for _, ok := range r.Reachable {
		if ok {
			n++
		}
	}
	return n
}

// LostVPs returns IDs responsive in before but unresponsive in after — the
// signature of a blackhole community taking effect.
func LostVPs(before, after PingResult) []int {
	var out []int
	for id, ok := range before.Reachable {
		if ok && !after.Reachable[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// VP returns the vantage point with the given ID.
func (p *Platform) VP(id int) (VantagePoint, bool) {
	for _, vp := range p.vps {
		if vp.ID == id {
			return vp, true
		}
	}
	return VantagePoint{}, false
}
