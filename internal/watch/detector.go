package watch

import (
	"fmt"
	"slices"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
)

// Detector is one streaming anomaly rule. Observe is called once per
// event with the prefix's window state as it was before the event; it
// emits zero or more alerts. Implementations must keep all mutable
// state inside PrefixState (one Detector instance is shared across
// every shard), and must be deterministic: the same (state, event) pair
// always emits the same alerts.
type Detector interface {
	// Name is the catalog key (kebab-case).
	Name() string
	// Observe inspects one event against its prefix window.
	Observe(st *PrefixState, ev *feed.Event, emit func(Alert))
}

// catalog is every detector the engine can run, in the default order:
// the four stateless rules by name, then the two that read a
// dictionary. bind returns the detector, bound to dict for the pair
// that needs one (the stateless rules ignore it).
var catalog = []struct {
	name      string
	needsDict bool
	bind      func(semantics.Provider) Detector
}{
	{"blackhole-onset", false, func(semantics.Provider) Detector { return blackholeOnset{} }},
	{"community-squat", false, func(semantics.Provider) Detector { return communitySquat{} }},
	{"prop-distance", false, func(semantics.Provider) Detector { return propDistance{threshold: 3} }},
	{"route-leak", false, func(semantics.Provider) Detector { return routeLeak{} }},
	{DictSquatName, true, func(d semantics.Provider) Detector { return dictSquat{dict: d} }},
	{UnknownActionName, true, func(d semantics.Provider) Detector { return unknownAction{dict: d} }},
}

// ResolveDetectors is the one way a detector list is named: the engine's
// default, the suite's arms and entry gates, and wormwatchd -detectors
// all call it. No names means the default set — every stateless rule,
// plus the dictionary pair when dict is non-nil. Named detectors come
// back in the order given; a name outside the catalog, or a dictionary
// detector without a dict to bind it to, is an error.
func ResolveDetectors(names []string, dict semantics.Provider) ([]Detector, error) {
	if len(names) == 0 {
		var out []Detector
		for _, c := range catalog {
			if !c.needsDict || dict != nil {
				out = append(out, c.bind(dict))
			}
		}
		return out, nil
	}
	out := make([]Detector, 0, len(names))
	for _, name := range names {
		i := 0
		for i < len(catalog) && catalog[i].name != name {
			i++
		}
		switch {
		case i == len(catalog):
			known := make([]string, len(catalog))
			for j, c := range catalog {
				known[j] = c.name
			}
			return nil, fmt.Errorf("unknown detector %q (have %v)", name, known)
		case catalog[i].needsDict && dict == nil:
			return nil, fmt.Errorf("detector %q needs a dictionary, and none is configured", name)
		}
		out = append(out, catalog[i].bind(dict))
	}
	return out, nil
}

// blackholeOnset fires when a blackhole-valued community (RFC 7999 or a
// :666 label) appears on a prefix whose window carried none — the onset
// of a remote-triggered blackholing episode (§7.3). Subsequent tagged
// deliveries land inside the window and stay silent, so one episode
// raises one alert per prefix.
//
// Value-pattern matching deliberately over-counts: a squatted :666 on
// an AS with no RTBH service fires too. That is CommunityWatch's point
// — only active verification (scenario blackhole-sweep) separates
// triggers from decoys — and the eval ground truth tolerates it.
type blackholeOnset struct{}

func (blackholeOnset) Name() string { return "blackhole-onset" }
func (blackholeOnset) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw {
		return
	}
	var bh bgp.Community
	found := false
	for _, c := range ev.Communities {
		if c.IsBlackhole() {
			bh, found = c, true
			break
		}
	}
	if !found {
		return
	}
	for i := 0; i < st.Len(); i++ {
		for _, c := range st.At(i).Communities() {
			if c.IsBlackhole() {
				return // episode already open
			}
		}
	}
	emit(Alert{
		Severity:  Critical,
		Community: bh.String(),
		Message:   fmt.Sprintf("blackhole community %s onset (origin AS%d)", bh, ev.Origin()),
	})
}

// communitySquat fires when an announcement carries a community whose
// ASN part names an AS that is neither on the AS path nor well-known,
// and that the prefix's window has not seen before — the "unexpected
// ASN per origin" noise class of Krenc et al. and the §7.6 decoy
// population. Legitimate off-path uses exist (community bundling,
// action communities aimed upstream), so the severity stays at Warning.
type communitySquat struct{}

func (communitySquat) Name() string { return "community-squat" }
func (communitySquat) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw {
		return
	}
	for _, c := range ev.Communities {
		if c.IsWellKnown() || slices.Contains(ev.ASPath, uint32(c.ASN())) || st.HasCommunity(c) {
			continue
		}
		emit(Alert{
			Severity:  Warning,
			Community: c.String(),
			Message: fmt.Sprintf("community %s names off-path AS%d (origin AS%d announced via AS%d)",
				c, c.ASN(), ev.Origin(), ev.PeerAS),
		})
	}
}

// propDistance fires when a community is observed more than threshold
// AS hops beyond the AS it names — the long tail of the Figure 5
// traveled-distance ECDFs, and the propagation precondition every
// remote-trigger attack needs (§5.4). The distance is measured on the
// prepending-stripped path, as §4.1 normalizes.
type propDistance struct{ threshold int }

func (propDistance) Name() string { return "prop-distance" }
func (d propDistance) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw || len(ev.ASPath) == 0 || len(ev.Communities) == 0 {
		return
	}
	for _, c := range ev.Communities {
		if c.IsWellKnown() {
			continue
		}
		hops := travelHops(ev.ASPath, c)
		if hops <= d.threshold {
			continue
		}
		// One alert per (prefix, community) while the community stays in
		// the window: any windowed sighting at spike distance suppresses.
		repeat := false
		for i := 0; i < st.Len() && !repeat; i++ {
			prior := st.At(i)
			if prior.Withdraw() || !prior.Communities().Has(c) {
				continue
			}
			if travelHops(prior.ASPath(), c) > d.threshold {
				repeat = true
			}
		}
		if repeat {
			continue
		}
		emit(Alert{
			Severity:  Info,
			Community: c.String(),
			Message:   fmt.Sprintf("community %s traveled %d AS hops beyond AS%d", c, hops, c.ASN()),
		})
	}
}

// travelHops returns how many AS hops beyond its naming AS the
// community has traveled on a raw nearest-first path, counting a run of
// consecutive repeats (prepending) as one hop — the index the naming AS
// would have in bgp.StripPrepending, without building it — or -1
// when the naming AS is not on the path.
func travelHops(path []uint32, c bgp.Community) int {
	hops := 0
	for i, a := range path {
		if i > 0 && a == path[i-1] {
			continue
		}
		if a == uint32(c.ASN()) {
			return hops
		}
		hops++
	}
	return -1
}

// routeLeak fires when an announcement's origin AS differs from every
// origin the prefix's window has seen — the origin-shift signature a
// leak or hijack leaves in the update stream (§5.2 crossed with §7.3's
// IRR-circumvented origination). The window keeps the alert one-shot:
// once the foreign origin is windowed, repeats stay silent until it
// ages out.
type routeLeak struct{}

func (routeLeak) Name() string { return "route-leak" }
func (routeLeak) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw || len(ev.ASPath) == 0 {
		return
	}
	origin := ev.Origin()
	var prev uint32
	seen := false
	for i := 0; i < st.Len(); i++ {
		prior := st.At(i)
		if prior.Withdraw() || len(prior.ASPath()) == 0 {
			continue
		}
		po := prior.Origin()
		if po == origin {
			return // origin already established in the window
		}
		prev, seen = po, true
	}
	if !seen {
		return // first sighting: nothing to contradict
	}
	emit(Alert{
		Severity: Critical,
		Origin:   origin,
		Message:  fmt.Sprintf("origin shifted to AS%d (window held AS%d) — route-leak/hijack signature", origin, prev),
	})
}
