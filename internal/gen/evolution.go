package gen

import (
	"math"

	"bgpworms/internal/topo"
)

// EvolutionPoint is one year's community-usage metrics — a row of the
// Figure 3 time series.
type EvolutionPoint struct {
	Year int
	// UniqueASes is the number of distinct ASes referenced in observed
	// communities (under the AS:value convention).
	UniqueASes int
	// UniqueCommunities is the number of distinct community values seen.
	UniqueCommunities int
	// AbsoluteCommunities is the total community count across updates.
	AbsoluteCommunities int
	// TableEntries is the summed collector RIB size.
	TableEntries int
}

// ScaleForYear shrinks base parameters to an earlier year. Community use
// grows superlinearly (the paper reports +18% uniques in the single year
// to April 2018 and a ~10x rise since 2010), so both the network size and
// the tagging propensity scale.
func ScaleForYear(base Params, year int) Params {
	f := math.Pow(float64(year-2009)/9.0, 1.3)
	if f < 0.12 {
		f = 0.12
	}
	p := base
	// Keep the seed constant: successive years then share generator
	// draws, so growth dominates sampling noise in the Figure 3 series.
	p.Seed = base.Seed
	p.Tier1 = max(3, int(float64(base.Tier1)*f))
	p.Mid = max(4, int(float64(base.Mid)*f))
	p.Stubs = max(10, int(float64(base.Stubs)*f))
	p.IXPs = max(1, int(float64(base.IXPs)*f))
	p.ChurnEvents = max(5, int(float64(base.ChurnEvents)*f))
	p.RTBHEvents = max(1, int(float64(base.RTBHEvents)*f))
	p.POriginTags = base.POriginTags * (0.45 + 0.55*f)
	p.PLocationTagging = base.PLocationTagging * (0.4 + 0.6*f)
	p.PBlackholeService = base.PBlackholeService * (0.35 + 0.65*f)
	return p
}

// MetricsFn extracts the Figure 3 metrics from a built Internet after its
// churn ran. It is supplied by the analysis layer to avoid a dependency
// cycle (gen builds worlds, core measures them).
type MetricsFn func(w *Internet) (uniqueASes, uniqueComms, absolute, tableEntries int)

// Evolution builds one Internet per year and measures it, producing the
// Figure 3 series.
func Evolution(base Params, years []int, measure MetricsFn) ([]EvolutionPoint, error) {
	var out []EvolutionPoint
	for _, y := range years {
		w, err := Build(ScaleForYear(base, y))
		if err != nil {
			return nil, err
		}
		if _, err := w.RunChurn(); err != nil {
			return nil, err
		}
		ua, uc, abs, te := measure(w)
		out = append(out, EvolutionPoint{
			Year: y, UniqueASes: ua, UniqueCommunities: uc,
			AbsoluteCommunities: abs, TableEntries: te,
		})
	}
	return out, nil
}

// TransitASes returns the generated transit ASes (tier-1 + mid).
func (w *Internet) TransitASes() []topo.ASN {
	return append(w.tier1ASNs(), w.midASNs()...)
}

// StubASes returns the generated stub ASes.
func (w *Internet) StubASes() []topo.ASN { return w.stubASNs() }
