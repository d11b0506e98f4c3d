package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bgpworms/internal/bgp"
	"bgpworms/internal/conc"
	"bgpworms/internal/mrt"
)

// StreamMRTUpdates decodes a BGP4MP update stream (as written by
// collector.WriteUpdatesMRT) and invokes fn once per normalized routing
// observation, without materializing the update slice. It returns the
// collector metadata gathered along the way. fn errors abort the stream.
func StreamMRTUpdates(platform, collectorName string, r io.Reader, fn func(u *Update) error) (CollectorMeta, error) {
	meta := CollectorMeta{Platform: platform, Name: collectorName, PeerASNs: make(map[uint32]bool)}
	mr := mrt.NewReader(r)
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return meta, fmt.Errorf("core: reading MRT: %w", err)
		}
		msg, ok := rec.(*mrt.BGP4MPMessage)
		if !ok {
			continue // state changes etc. carry no routes
		}
		upd, ok := msg.Message.(*bgp.Update)
		if !ok {
			continue
		}
		meta.PeerASNs[msg.PeerAS] = true
		base := Update{
			Platform:  platform,
			Collector: collectorName,
			PeerAS:    msg.PeerAS,
			Time:      msg.Timestamp,
		}
		for _, p := range upd.AllAnnounced() {
			u := base
			u.Prefix = p
			u.ASPath = upd.Attrs.ASPath.Sequence()
			u.Communities = upd.Attrs.Communities.Clone()
			if err := fn(&u); err != nil {
				return meta, err
			}
		}
		for _, p := range upd.AllWithdrawn() {
			u := base
			u.Prefix = p
			u.Withdraw = true
			if err := fn(&u); err != nil {
				return meta, err
			}
		}
	}
	meta.PeerIPs = len(meta.PeerASNs)
	return meta, nil
}

// Accumulator ingests routing observations one at a time and folds every
// §4 aggregate in a single pass: Tables 1/2, Figures 4a/4b, the Figure 5
// propagation observations, the transit-propagator sets, and the
// latest-route view Figure 6 runs on. It is
// the streaming complement of Dataset: MRT byte streams can be classified
// without retaining the update slice (memory stays bounded by the
// aggregate sizes — table entries, distinct sets, and per-community
// observations — not by stream length).
//
// Accumulators also serve as the per-chunk partial aggregates of
// Pipeline.Analyze: Merge combines two accumulators deterministically
// when the receiver folded the earlier portion of the stream.
type Accumulator struct {
	collectors []CollectorMeta
	platforms  []string
	seenPf     map[string]bool

	t1      table1Shards
	t2      table2Shards
	fig4a   *fig4aAgg
	share   *shareAgg
	fig4b   *fig4bAgg
	prop    *propAgg
	transit *transitAgg
	latest  *latestAgg
}

func newAccumulatorFor(isBlackhole func(bgp.Community) bool) *Accumulator {
	return &Accumulator{
		seenPf:  make(map[string]bool),
		t1:      make(table1Shards),
		t2:      make(table2Shards),
		fig4a:   newFig4aAgg(),
		share:   &shareAgg{},
		fig4b:   &fig4bAgg{},
		prop:    newPropAgg(isBlackhole),
		transit: newTransitAgg(),
		latest:  newLatestAgg(),
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

// Add folds one observation into every aggregate.
func (a *Accumulator) Add(u *Update) { a.addStripped(u, u.StrippedPath()) }

func (a *Accumulator) addStripped(u *Update, stripped []uint32) {
	a.t1.add(u, stripped)
	a.t2.add(u, stripped)
	a.fig4a.add(u)
	a.share.add(u)
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
	a.share.merge(b.share)
	a.fig4b.merge(b.fig4b)
	a.prop.merge(b.prop)
	a.transit.merge(b.transit)
	a.latest.merge(b.latest)
}

// Analysis finalizes the accumulator into the full output bundle,
// running the Figure 6 inference over p's worker pool (nil = one
// worker per CPU).
func (a *Accumulator) Analysis(p *Pipeline) *Analysis {
	return &Analysis{
		Table1:  a.t1.rows(a.collectors, a.platforms),
		Table2:  a.t2.rows(a.collectors, a.platforms),
		Fig4a:   a.fig4a.finalize(),
		Share:   a.share.finalize(),
		Fig4b:   a.fig4b.finalize(),
		Prop:    a.prop.finalize(),
		Transit: a.transit.finalize(),
		Filter:  p.inferFiltering(a.latest.finalize()),
	}
}

// collectorNameFromFile derives (platform, collector) from an MRT archive
// name like updates.RIS-rrc00.mrt: the collector is the base name between
// "updates." and ".mrt", the platform is its prefix before the first "-".
func collectorNameFromFile(path string) (platform, name string) {
	name = strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "updates."), ".mrt")
	platform = name
	if i := strings.Index(name, "-"); i > 0 {
		platform = name[:i]
	}
	return platform, name
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
// slice: each archive streams into its own accumulator on the worker
// pool, and the accumulators merge in sorted file-name order.
func (p *Pipeline) StreamMRTDir(dir string, knownBlackhole []bgp.Community) (*Analysis, error) {
	matches, err := archivesIn(dir)
	if err != nil {
		return nil, err
	}
	cls := IsBlackholeClassifier(knownBlackhole)
	accs := make([]*Accumulator, len(matches))
	errs := make([]error, len(matches))
	conc.Do(len(matches), p.workers(), func(i int) {
		platform, name := collectorNameFromFile(matches[i])
		f, err := os.Open(matches[i])
		if err != nil {
			errs[i] = err
			return
		}
		defer f.Close()
		acc := newAccumulatorFor(cls)
		meta, err := StreamMRTUpdates(platform, name, f, func(u *Update) error {
			acc.Add(u)
			return nil
		})
		if err != nil {
			errs[i] = err
			return
		}
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
