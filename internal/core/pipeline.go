package core

import (
	"runtime"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
)

// Pipeline runs the §4 analysis over a worker pool. There is one fold —
// Accumulator, which feeds every per-update aggregate from one look at
// each update — and one entry per shape the input comes in:
//
//   - Analyze takes a world in memory (a Dataset): each collector's run
//     of the update slice folds into its own Accumulator, merged in
//     slice order;
//   - AnalyzeArchives takes collectors' archives one event at a time
//     (a partitioned world's, gen.Archives.Each): each collector folds
//     into its own Accumulator, merged in collector order;
//   - StreamMRTDir takes bytes on disk: each updates.*.mrt archive
//     streams into its own Accumulator, the update slice never
//     materialized, merged in sorted file-name order.
//
// All end in Accumulator.Analysis, which filters and sorts each
// collector's latest-route view on its own worker and adds the one
// per-prefix reduction (the Figure 6 filter inference): the concurrent
// route view is sharded by prefix and the per-edge indication counts
// merge by summation. Ordered merging reproduces the exact serial fold
// order and indication counts commute, so every result is bit-identical
// across worker counts; the determinism tests assert workers=1 and
// workers=8 agree on rendered output.
type Pipeline struct {
	// Workers is the parallelism degree; 0 or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// NewPipeline returns a pipeline with the given worker count (0 = one
// worker per available CPU).
func NewPipeline(workers int) *Pipeline { return &Pipeline{Workers: workers} }

func (p *Pipeline) workers() int {
	if p == nil || p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// Analysis bundles every passive-measurement output of §4: the pass over
// the update stream strips each AS path once and feeds all aggregates,
// and the concurrent-view reduction adds Figure 6. Figures 5a/5b/5c are
// read off Prop, the Figure 6 summary and bins off Filter. Fig3 is this
// world's point of the Figure 3 series, which spans several worlds (see
// Pipeline.EvolutionMetrics).
type Analysis struct {
	Table1  []Table1Row
	Table2  []Table2Row
	Fig4a   []CollectorFraction
	Share   float64
	Fig4b   Figure4b
	Prop    *PropagationAnalysis
	Transit TransitReport
	Filter  *FilterInference
	Fig3    Figure3
}

// Figure3 is one world's point of the Figure 3 growth series, each value
// read off an aggregate the fold already holds: the community ASes are
// Table 2's Total row, the unique communities Table 1's, the absolute
// count sums Figure 4b's per-announcement counts, and the table entries
// are the latest-route view Figure 6 runs on.
type Figure3 struct {
	UniqueASes          int
	UniqueCommunities   int
	AbsoluteCommunities int
	TableEntries        int
}

// Analyze runs the full §4 pipeline over an in-memory dataset: each
// run of consecutive updates from one collector (Source) folds into its
// own Accumulator on the worker pool, the accumulators merge in slice
// order, then the Figure 6 inference runs over the latest-route view
// sharded by prefix. knownBlackhole seeds the Figure 5 blackhole
// classifier (nil = only :666 classifies).
func (p *Pipeline) Analyze(ds *Dataset, knownBlackhole []bgp.Community) *Analysis {
	acc := p.fold(ds.Updates, IsBlackholeClassifier(knownBlackhole))
	for _, c := range ds.Collectors {
		acc.AddCollector(c)
	}
	return acc.Analysis(p)
}

// fold folds updates through foldStreams, one stream per run of
// consecutive updates from one collector.
func (p *Pipeline) fold(updates []feed.Event, cls func(bgp.Community) bool) *Accumulator {
	var runs [][2]int
	for lo := 0; lo < len(updates); {
		hi := lo + 1
		for hi < len(updates) && updates[hi].Source == updates[lo].Source {
			hi++
		}
		runs = append(runs, [2]int{lo, hi})
		lo = hi
	}
	return p.foldStreams(len(runs), func(i int, add func(*feed.Event)) {
		for j := runs[i][0]; j < runs[i][1]; j++ {
			add(&updates[j])
		}
	}, cls)
}

// AnalyzeArchives runs the full §4 pipeline over collectors' archives
// that are never held as one update slice: each(c, add) hands collector
// cs[c]'s archive to add one event at a time, in its order, and may
// build every event in one value it reuses. Each collector folds into
// its own Accumulator on the worker pool, so each must serve several
// collectors at once, and the accumulators merge in cs order: the
// Analysis of the Dataset FromCollectors would make of the same
// archives.
func (p *Pipeline) AnalyzeArchives(cs []*collector.Collector, each func(c int, add func(*feed.Event)), knownBlackhole []bgp.Community) *Analysis {
	acc := p.foldStreams(len(cs), each, IsBlackholeClassifier(knownBlackhole))
	for _, c := range cs {
		acc.AddCollector(collectorMeta(c))
	}
	return acc.Analysis(p)
}

// foldStreams folds n streams, stream i handed to add by each(i, add),
// one Accumulator per stream, concurrently, and merges the accumulators
// in stream order, which reproduces the serial scan of their
// concatenation.
func (p *Pipeline) foldStreams(n int, each func(i int, add func(*feed.Event)), cls func(bgp.Community) bool) *Accumulator {
	if n == 0 {
		return newAccumulatorFor(cls)
	}
	accs := make([]*Accumulator, n)
	conc.Do(n, p.workers(), func(i int) {
		acc := newAccumulatorFor(cls)
		each(i, acc.Add)
		accs[i] = acc
	})
	for _, b := range accs[1:] {
		accs[0].Merge(b)
	}
	return accs[0]
}

// EvolutionMetrics returns the four Figure 3 series values of one world:
// unique ASes in communities, unique communities, absolute community
// count, and table entries (latest-route count). They are Analyze's Fig3.
func (p *Pipeline) EvolutionMetrics(ds *Dataset) (uniqueASes, uniqueComms, absolute, tableEntries int) {
	f := p.Analyze(ds, nil).Fig3
	return f.UniqueASes, f.UniqueCommunities, f.AbsoluteCommunities, f.TableEntries
}
