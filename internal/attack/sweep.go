package attack

import (
	"sort"

	"bgpworms/internal/atlas"
	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/scenario"
	"bgpworms/internal/stats"
	"bgpworms/internal/topo"
)

// SweepEntry is the outcome for one candidate blackhole community (§7.6).
type SweepEntry struct {
	Community bgp.Community
	// LostVPs were responsive before and unresponsive after tagging.
	LostVPs []int
	// Verified reflects ground truth (the community is a real RTBH
	// trigger), used to score the inference.
	Verified bool
	// TargetOnPath counts lost VPs whose traceroute contains the
	// community's target AS (the §7.6 hop analysis).
	TargetOnPath int
	// HopDistances are lower bounds on blackhole-community travel,
	// per affected VP (position of the target AS in the trace).
	HopDistances []int
}

// Induced reports whether the community blackholed at least one VP.
func (e SweepEntry) Induced() bool { return len(e.LostVPs) > 0 }

// SweepReport aggregates the automated experiment.
type SweepReport struct {
	Entries []SweepEntry
	// TotalVPs is the vantage-point population size.
	TotalVPs int
	// Stable reports whether the verification re-run matched exactly
	// ("the results from this second round of probing exactly matched
	// the first", §7.6).
	Stable bool
}

// InducingCommunities returns entries that blackholed >= 1 VP.
func (r *SweepReport) InducingCommunities() []SweepEntry {
	var out []SweepEntry
	for _, e := range r.Entries {
		if e.Induced() {
			out = append(out, e)
		}
	}
	return out
}

// AffectedVPs returns the union of lost VPs across entries.
func (r *SweepReport) AffectedVPs() []int {
	set := map[int]bool{}
	for _, e := range r.Entries {
		for _, id := range e.LostVPs {
			set[id] = true
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// PrecisionRecall scores blackhole inference against ground truth:
// inferred = induced entries; relevant = verified entries.
func (r *SweepReport) PrecisionRecall() (precision, recall float64) {
	tp, fp, fn := 0, 0, 0
	for _, e := range r.Entries {
		switch {
		case e.Induced() && e.Verified:
			tp++
		case e.Induced() && !e.Verified:
			fp++
		case !e.Induced() && e.Verified:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// BlackholeSweep reproduces the §7.6 protocol for every community in the
// candidate list: (1) advertise the test prefix plain, (2) probe from all
// VPs, (3) advertise tagged with the candidate, (4) re-probe and diff,
// then traceroute the affected VPs and locate the target AS. The whole
// sweep is run twice to confirm stability.
func (l *Lab) BlackholeSweep(candidates []bgp.Community) (*SweepReport, error) {
	first, err := l.sweepOnce(candidates)
	if err != nil {
		return nil, err
	}
	second, err := l.sweepOnce(candidates)
	if err != nil {
		return nil, err
	}
	first.Stable = sweepsEqual(first, second)
	return first, nil
}

func (l *Lab) sweepOnce(candidates []bgp.Community) (*SweepReport, error) {
	inj := l.Peering
	probe := sweepPrefix
	dst := netx.NthAddr(probe, 21)
	rep := &SweepReport{TotalVPs: len(l.Atlas.VPs())}

	for _, c := range candidates {
		// Step 1: plain announcement.
		if err := l.Announce(inj, probe); err != nil {
			return nil, err
		}
		before := l.Atlas.PingAll(dst)
		// Step 3: tagged announcement.
		if err := l.Withdraw(inj, probe); err != nil {
			return nil, err
		}
		if err := l.Announce(inj, probe, c); err != nil {
			return nil, err
		}
		after := l.Atlas.PingAll(dst)
		entry := SweepEntry{
			Community: c,
			LostVPs:   atlas.LostVPs(before, after),
			Verified:  l.isVerified(c),
		}
		// Hop analysis on affected VPs: traceroute and locate the
		// community's target AS.
		if entry.Induced() {
			for _, id := range entry.LostVPs {
				vp, ok := l.Atlas.VP(id)
				if !ok {
					continue
				}
				tr := l.W.Net.Forward(vp.AS, dst)
				if pos := indexOf(tr.Hops, topo.ASN(c.ASN())); pos >= 0 {
					entry.TargetOnPath++
					entry.HopDistances = append(entry.HopDistances, len(tr.Hops)-pos)
				}
			}
		}
		rep.Entries = append(rep.Entries, entry)
		if err := l.Withdraw(inj, probe); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (l *Lab) isVerified(c bgp.Community) bool {
	for _, v := range l.W.Registry.Verified {
		if v == c {
			return true
		}
	}
	return false
}

func indexOf(hops []topo.ASN, asn topo.ASN) int {
	for i, h := range hops {
		if h == asn {
			return i
		}
	}
	return -1
}

func sweepsEqual(a, b *SweepReport) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Community != eb.Community || len(ea.LostVPs) != len(eb.LostVPs) {
			return false
		}
		for j := range ea.LostVPs {
			if ea.LostVPs[j] != eb.LostVPs[j] {
				return false
			}
		}
	}
	return true
}

// RenderSweep summarizes the §7.6 numbers.
func RenderSweep(r *SweepReport) string {
	t := stats.NewTable("Metric", "Value")
	ind := r.InducingCommunities()
	t.Row("candidate communities", len(r.Entries))
	t.Row("inducing >=1 VP loss", len(ind))
	t.Row("share inducing", stats.Pct(len(ind), len(r.Entries)))
	aff := r.AffectedVPs()
	t.Row("affected VPs", len(aff))
	t.Row("share of VPs", stats.Pct(len(aff), r.TotalVPs))
	p, rec := r.PrecisionRecall()
	t.Row("precision vs ground truth", p)
	t.Row("recall vs ground truth", rec)
	t.Row("re-run stable", r.Stable)
	return t.String()
}

// RenderTable3 renders scenario results in the paper's Table 3 layout.
func RenderTable3(results []*scenario.Result) string {
	t := stats.NewTable("Scenario", "Hijack", "Success", "Difficulty", "Insights")
	for _, r := range results {
		hij := "no"
		if r.Hijack {
			hij = "yes"
		}
		insight := ""
		if len(r.Insights) > 0 {
			insight = r.Insights[0]
		}
		t.Row(r.Scenario, hij, r.Success, r.Difficulty.String(), insight)
	}
	return t.String()
}

// RenderPropagation summarizes §7.2.
func RenderPropagation(reps []*PropagationReport) string {
	t := stats.NewTable("Injector", "ForwardingTransits", "TotalTransits", "Share", "ForwardingUpstreams")
	for _, r := range reps {
		t.Row(r.Injector, r.ForwardingTransits, r.TotalTransits,
			stats.Pct(r.ForwardingTransits, r.TotalTransits), r.ForwardingUpstreams)
	}
	return t.String()
}
