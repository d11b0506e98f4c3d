package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bgpworms/internal/bgp"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
)

// Accumulator ingests routing observations one at a time and folds every
// §4 aggregate in a single pass: Tables 1/2, Figures 4a/4b, the Figure 5
// propagation observations, the transit-propagator sets, and the
// latest-route view Figure 6 runs on. The Figure 4a share and the
// Figure 3 point are read off those aggregates, not folded again. It is
// the streaming complement of Dataset: MRT byte streams can be classified
// without retaining the update slice (memory stays bounded by the
// aggregate sizes — table entries, distinct sets, and per-community
// observations — not by stream length).
//
// Accumulators also serve as the per-collector partial aggregates of
// Pipeline.Analyze and StreamMRTDir: Merge combines two accumulators
// deterministically when the receiver folded the earlier portion of the
// stream.
type Accumulator struct {
	collectors []CollectorMeta
	platforms  []string
	seenPf     map[string]bool

	t1      table1Shards
	t2      table2Shards
	fig4a   *fig4aAgg
	fig4b   *fig4bAgg
	prop    *propAgg
	transit *transitAgg
	latest  latestAgg
}

func newAccumulatorFor(isBlackhole func(bgp.Community) bool) *Accumulator {
	return &Accumulator{
		seenPf:  make(map[string]bool),
		t1:      make(table1Shards),
		t2:      make(table2Shards),
		fig4a:   newFig4aAgg(),
		fig4b:   &fig4bAgg{},
		prop:    newPropAgg(isBlackhole),
		transit: newTransitAgg(),
		latest:  make(latestAgg),
	}
}

// AddCollector registers collector metadata (Table 1 infrastructure
// columns and the platform row order).
func (a *Accumulator) AddCollector(meta CollectorMeta) {
	a.collectors = append(a.collectors, meta)
	if !a.seenPf[meta.Platform] {
		a.seenPf[meta.Platform] = true
		a.platforms = append(a.platforms, meta.Platform)
	}
}

// Add folds one observation into every aggregate, under the platform
// its collector (Source) names. The latest-route view keeps ev itself,
// so the caller must not change it afterwards.
func (a *Accumulator) Add(ev *feed.Event) { a.addStripped(ev, strippedPath(ev)) }

func (a *Accumulator) addStripped(u *feed.Event, stripped []uint32) {
	platform := platformOf(u.Source)
	a.t1.add(platform, u, stripped)
	a.t2.add(platform, u, stripped)
	a.fig4a.add(platform, u)
	a.fig4b.add(u)
	a.prop.add(u, stripped)
	a.transit.add(u, stripped)
	a.latest.add(u)
}

// Merge folds b into a. a must have ingested the earlier portion of the
// stream: order-sensitive aggregates (latest routes, sample order) treat
// b's contents as later observations.
func (a *Accumulator) Merge(b *Accumulator) {
	for _, c := range b.collectors {
		a.AddCollector(c)
	}
	a.t1.merge(b.t1)
	a.t2.merge(b.t2)
	a.fig4a.merge(b.fig4a)
	a.fig4b.merge(b.fig4b)
	a.prop.merge(b.prop)
	a.transit.merge(b.transit)
	a.latest.merge(b.latest)
}

// Analysis finalizes the accumulator into the full output bundle,
// running the Figure 6 inference over p's worker pool (nil = one
// worker per CPU).
func (a *Accumulator) Analysis(p *Pipeline) *Analysis {
	t1 := a.t1.rows(a.collectors, a.platforms)
	t2 := a.t2.rows(a.collectors, a.platforms)
	fig4a := a.fig4a.finalize()
	latest := a.latest.finalize(p.workers())
	absolute := 0
	for _, block := range a.fig4b.comms {
		for _, n := range block {
			absolute += int(n)
		}
	}
	return &Analysis{
		Table1:  t1,
		Table2:  t2,
		Fig4a:   fig4a,
		Share:   share(fig4a),
		Fig4b:   a.fig4b.finalize(),
		Prop:    a.prop.finalize(),
		Transit: a.transit.finalize(),
		Filter:  p.inferFiltering(latest),
		Fig3: Figure3{
			UniqueASes:          t2[len(t2)-1].Total,
			UniqueCommunities:   t1[len(t1)-1].Communities,
			AbsoluteCommunities: absolute,
			TableEntries:        len(latest),
		},
	}
}

// collectorNameFromFile derives the collector name from an MRT archive
// name like updates.RIS-rrc00.mrt: the base name between "updates." and
// ".mrt" (its platform is platformOf the name).
func collectorNameFromFile(path string) string {
	return strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "updates."), ".mrt")
}

// UpdateArchives expands an -mrt argument into the update archives it
// names, in the order every reader consumes them: a file is itself, a
// directory is every updates.*.mrt under it in file-name order (what
// genesis writes). single reports the file case — the one shape a
// follower can tail.
func UpdateArchives(path string) (paths []string, single bool, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, false, err
	}
	if !info.IsDir() {
		return []string{path}, true, nil
	}
	paths, err = archivesIn(path)
	return paths, false, err
}

// archivesIn lists dir's updates.*.mrt archives; Glob returns them sorted.
func archivesIn(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "updates.*.mrt"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no updates.*.mrt files in %s", dir)
	}
	return matches, nil
}

// StreamMRTDir runs the full §4 pipeline over every
// updates.*.mrt archive under dir without materializing any update
// slice: each archive streams through feed.StreamMRT into its own
// accumulator on the worker pool, and the accumulators merge in sorted
// file-name order. An archive carries no session metadata, so its
// collector's peers are the peer ASes its records name.
func (p *Pipeline) StreamMRTDir(dir string, knownBlackhole []bgp.Community) (*Analysis, error) {
	matches, err := archivesIn(dir)
	if err != nil {
		return nil, err
	}
	cls := IsBlackholeClassifier(knownBlackhole)
	accs := make([]*Accumulator, len(matches))
	errs := make([]error, len(matches))
	conc.Do(len(matches), p.workers(), func(i int) {
		name := collectorNameFromFile(matches[i])
		f, err := os.Open(matches[i])
		if err != nil {
			errs[i] = err
			return
		}
		defer f.Close()
		acc := newAccumulatorFor(cls)
		meta := CollectorMeta{Platform: platformOf(name), Name: name, PeerASNs: make(map[uint32]bool)}
		if _, err := feed.StreamMRT(f, name, func(ev feed.Event) {
			meta.PeerASNs[ev.PeerAS] = true
			acc.Add(&ev)
		}); err != nil {
			errs[i] = err
			return
		}
		meta.PeerIPs = len(meta.PeerASNs)
		acc.AddCollector(meta)
		accs[i] = acc
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, acc := range accs[1:] {
		accs[0].Merge(acc)
	}
	return accs[0].Analysis(p), nil
}
