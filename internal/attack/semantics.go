package attack

import (
	"fmt"
	"strconv"
	"strings"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/topo"
)

// This file holds the dictionary-era scenarios: poisoning the inference
// that powers dictionary-aware detection (the worm that grows back),
// and the boundary-scrubbing defense ("Keep your Communities Clean")
// swept over filtering rates.

// RunDictionaryPoisoning models an attacker defeating dictionary-based
// anomaly detection by inflating a victim AS's inferred dictionary
// before squatting on it: announce probes tagged with fabricated
// communities naming the victim, so the squat value is "in vocabulary"
// by the time it is used. The scenario trains a dictionary over a clean
// churn baseline, poisons, and shows (a) the victim's inferred
// dictionary inflates, (b) the squat value moves from
// outside-dictionary (a dict-squat alert) to inside (silence), and (c)
// inference precision against ground truth drops — the detector's
// blind spot is measurable.
func (l *Lab) RunDictionaryPoisoning(values int) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Dictionary Poisoning", Difficulty: scenario.Medium}
	res.Insights = append(res.Insights,
		"inferred dictionaries are built from attacker-writable data: whoever can announce can define",
		"a poisoned dictionary turns the dict-squat detector's strength (suppressing recurring values) into a blind spot")
	if values < 1 {
		values = 1
	}

	// The inference under attack observes the live network.
	sem := semantics.NewEngine(semantics.Config{})
	defer sem.Close()
	tapID := l.W.Net.Tap(feed.Tap("", sem.Ingest))
	defer l.W.Net.Untap(tapID)

	// Clean training baseline: a month of ordinary churn.
	if _, err := l.W.RunChurn(); err != nil {
		return nil, err
	}
	clean := sem.Snapshot()

	// Victim and squat value: the classic decoy when the registry has
	// one (so the masked squat is exactly the §7.6 population), else a
	// fabricated :666 on the first mid-tier transit.
	var squat bgp.Community
	if len(l.W.Registry.Likely) > 0 {
		squat = l.W.Registry.Likely[0]
	} else {
		// No decoy in the registry: fabricate one on a transit that
		// documents no RTBH service.
		for _, asn := range l.W.TransitASes() {
			if _, offers := l.W.Catalogs[asn].BlackholeCommunity(); !offers {
				squat = bgp.C(uint16(asn), 666)
				break
			}
		}
		if squat == 0 {
			res.Notef("every transit offers RTBH; no decoy to squat")
			return res, nil
		}
	}
	victim := topo.ASN(squat.ASN())
	cleanEntries := len(clean.AS(squat.ASN()))
	if _, known := clean.Lookup(squat); known {
		res.Notef("squat value %s already in the clean dictionary; nothing to mask", squat)
		return res, nil
	}

	// Poison: one announcement carrying the squat value plus fabricated
	// siblings, all naming the victim. After convergence the values are
	// vocabulary everywhere the probe propagated.
	inj := l.Research
	poison := bgp.NewCommunitySet(squat)
	for i := 0; i < values-1; i++ {
		poison = poison.Add(bgp.C(uint16(victim), uint16(40000+i)))
	}
	if err := l.Announce(inj, inj.OwnPrefix, poison...); err != nil {
		return nil, err
	}
	if err := l.Withdraw(inj, inj.OwnPrefix); err != nil {
		return nil, err
	}
	poisoned := sem.Snapshot()
	poisonedEntries := len(poisoned.AS(squat.ASN()))
	res.Notef("victim AS%d dictionary: %d entries clean, %d after poisoning (+%d)",
		victim, cleanEntries, poisonedEntries, poisonedEntries-cleanEntries)

	_, maskedIn := poisoned.Lookup(squat)
	res.Notef("squat %s: outside clean dictionary, inside poisoned one = %v (dict-squat silenced)", squat, maskedIn)

	// The damage is measurable: precision against ground truth drops.
	truth := l.W.TruthDict()
	pClean := semantics.ScoreAgainst(clean, truth).Precision()
	pPoisoned := semantics.ScoreAgainst(poisoned, truth).Precision()
	res.Notef("inference precision vs ground truth: %.3f clean, %.3f poisoned", pClean, pPoisoned)

	res.Success = poisonedEntries-cleanEntries >= values && maskedIn && pPoisoned < pClean
	return res, nil
}

// hygieneRates parses the scenario's comma-separated percentage list.
func hygieneRates(raw string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(raw, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 || v > 100 {
			return nil, fmt.Errorf("attack: bad filtering rate %q (want 0..100)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("attack: empty filtering-rate list")
	}
	return out, nil
}

// RunHygieneFiltering sweeps boundary community scrubbing ("Keep your
// Communities Clean": strip foreign communities at network edges) over
// filtering rates: for each rate it builds a world where that share of
// transit ASes runs strip-foreign (the rest forward-all, all else
// equal — the per-AS RNG streams are unchanged, so worlds differ only
// in propagation mode), then measures how far a benign community
// travels and whether a remote RTBH trigger two hops out still fires.
// Success means the defense works as the paper's §6.2 predicts:
// propagation shrinks monotonically and full hygiene kills the remote
// trigger that rate 0 delivers.
func RunHygieneFiltering(ctx *scenario.Context) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Hygiene Filtering Sweep", Difficulty: scenario.Easy}
	res.Insights = append(res.Insights,
		"strip-foreign at boundaries bounds the attack radius the same way it bounds measurement visibility",
		"hygiene is a collective defense: partial adoption shrinks, only near-universal adoption kills")
	rates, err := hygieneRates(ctx.String("rates"))
	if err != nil {
		return nil, err
	}

	type cell struct {
		rate       int
		forwarding int
		rtbhFired  bool
	}
	var cells []cell
	for _, rate := range rates {
		p := ctx.Gen
		f := float64(rate) / 100
		p.PropStripForeign = f
		p.PropForwardAll = 1 - f
		p.PropStripAll, p.PropActStripOwn = 0, 0
		c := cell{rate: rate}
		l, err := NewLab(p, ctx.VPs)
		if err != nil {
			// Full hygiene leaves no community-forwarding upstream to
			// attach to: the remote-trigger precondition is dead before
			// the attack starts.
			res.Notef("rate %d%%: %v (no propagation path; attack unlaunchable)", rate, err)
			cells = append(cells, c)
			continue
		}
		if ctx.World != nil {
			ctx.World(l.W)
		}
		prop, err := l.PropagationCheck(l.Research)
		if err != nil {
			return nil, err
		}
		c.forwarding = prop.ForwardingTransits
		c.rtbhFired, err = l.remoteRTBHFires()
		if err != nil {
			return nil, err
		}
		res.Notef("rate %d%%: benign tag intact at %d/%d transits; remote RTBH trigger fired=%v",
			rate, prop.ForwardingTransits, prop.TotalTransits, c.rtbhFired)
		cells = append(cells, c)
	}

	monotone := true
	for i := 1; i < len(cells); i++ {
		if cells[i].forwarding > cells[i-1].forwarding {
			monotone = false
			res.Notef("NON-MONOTONE: rate %d%% forwards more than rate %d%%", cells[i].rate, cells[i-1].rate)
		}
	}
	first, last := cells[0], cells[len(cells)-1]
	res.Success = monotone && first.rtbhFired && !last.rtbhFired
	if !first.rtbhFired {
		res.Notef("remote RTBH never fired even unfiltered; sweep proves nothing")
	}
	if last.rtbhFired {
		res.Notef("remote RTBH still fires at %d%% filtering", last.rate)
	}
	return res, nil
}

// remoteRTBHFires attempts the §7.3 remote trigger against the nearest
// RTBH target at least two AS hops out and reports whether the target
// null-routed the prefix.
func (l *Lab) remoteRTBHFires() (bool, error) {
	inj := l.Research
	targets, err := l.FindRTBHTargets(inj, inj.OwnPrefix)
	if err != nil {
		return false, err
	}
	var target RTBHTarget
	for _, t := range targets {
		if t.HopsAway >= 2 {
			target = t
			break
		}
	}
	if target.AS == 0 {
		return false, nil // no trigger can reach that far
	}
	if err := l.Announce(inj, inj.OwnPrefix, target.Community); err != nil {
		return false, err
	}
	defer l.Withdraw(inj, inj.OwnPrefix)
	rt, ok := l.W.Net.LookingGlass(target.AS).Route(inj.OwnPrefix)
	return ok && rt.Blackhole && rt.ASPath.Contains(uint32(inj.ASN)), nil
}
