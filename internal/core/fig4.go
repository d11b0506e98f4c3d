package core

import (
	"sort"

	"bgpworms/internal/feed"
	"bgpworms/internal/stats"
)

// CollectorFraction is one point of Figure 4a: the fraction of a
// collector's updates carrying at least one community.
type CollectorFraction struct {
	Platform  string
	Collector string
	Updates   int
	WithComm  int
}

// Fraction returns the with-community share.
func (c CollectorFraction) Fraction() float64 {
	if c.Updates == 0 {
		return 0
	}
	return float64(c.WithComm) / float64(c.Updates)
}

// fig4aAgg folds per-collector update counts. The first-seen order list
// lets ordered merging reproduce the serial discovery order
// exactly, which keeps the pre-sort slice identical across worker
// counts.
type fig4aAgg struct {
	idx map[string]int
	out []CollectorFraction
}

func newFig4aAgg() *fig4aAgg { return &fig4aAgg{idx: make(map[string]int)} }

func (a *fig4aAgg) add(platform string, u *feed.Event) {
	if u.Withdraw {
		return
	}
	i, ok := a.idx[u.Source]
	if !ok {
		i = len(a.out)
		a.idx[u.Source] = i
		a.out = append(a.out, CollectorFraction{Platform: platform, Collector: u.Source})
	}
	a.out[i].Updates++
	if len(u.Communities) > 0 {
		a.out[i].WithComm++
	}
}

func (a *fig4aAgg) merge(b *fig4aAgg) {
	for _, f := range b.out {
		i, ok := a.idx[f.Collector]
		if !ok {
			i = len(a.out)
			a.idx[f.Collector] = i
			a.out = append(a.out, CollectorFraction{Platform: f.Platform, Collector: f.Collector})
		}
		a.out[i].Updates += f.Updates
		a.out[i].WithComm += f.WithComm
	}
}

// finalize sorts ascending within each platform as the paper plots them,
// with the collector name as a total-order tie break.
func (a *fig4aAgg) finalize() []CollectorFraction {
	out := a.out
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		if fi, fj := out[i].Fraction(), out[j].Fraction(); fi != fj {
			return fi < fj
		}
		return out[i].Collector < out[j].Collector
	})
	return out
}

// share is the §4 headline figure: the with-community share of all
// announcements, summed over the Figure 4a rows.
func share(fracs []CollectorFraction) float64 {
	var updates, with int
	for _, f := range fracs {
		updates += f.Updates
		with += f.WithComm
	}
	if updates == 0 {
		return 0
	}
	return float64(with) / float64(updates)
}

// Figure4b holds the two per-update ECDFs of Figure 4b.
type Figure4b struct {
	// CommunitiesPerUpdate distributes the community count of each
	// announcement.
	CommunitiesPerUpdate *stats.ECDF
	// ASesPerUpdate distributes the number of distinct ASes referenced by
	// each announcement's communities.
	ASesPerUpdate *stats.ECDF
}

// fig4bAgg accumulates the raw samples; ordered concatenation
// reproduces the serial sample order.
type fig4bAgg struct {
	comms blockList[float64]
	ases  blockList[float64]
}

func (a *fig4bAgg) add(u *feed.Event) {
	if u.Withdraw {
		return
	}
	a.comms.add(float64(len(u.Communities)))
	a.ases.add(float64(len(u.Communities.ASNs())))
}

func (a *fig4bAgg) merge(b *fig4bAgg) {
	a.comms.merge(b.comms)
	a.ases.merge(b.ases)
}

func (a *fig4bAgg) finalize() Figure4b {
	return Figure4b{
		CommunitiesPerUpdate: stats.NewECDF(a.comms.all()),
		ASesPerUpdate:        stats.NewECDF(a.ases.all()),
	}
}

// RenderFigure4a renders the per-collector series.
func RenderFigure4a(fracs []CollectorFraction) string {
	t := stats.NewTable("Platform", "Collector", "Updates", "WithCommunities", "Fraction")
	for _, f := range fracs {
		t.Row(f.Platform, f.Collector, f.Updates, f.WithComm, f.Fraction())
	}
	return t.String()
}

// RenderFigure4b renders quantiles of both ECDFs.
func RenderFigure4b(f Figure4b) string {
	t := stats.NewTable("Quantile", "Communities/update", "ASes/update")
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		t.Row(q, f.CommunitiesPerUpdate.Quantile(q), f.ASesPerUpdate.Quantile(q))
	}
	return t.String()
}
