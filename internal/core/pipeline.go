package core

import (
	"runtime"
	"sync"

	"bgpworms/internal/bgp"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
)

// Pipeline runs the §4 analysis over a worker pool. There is one fold —
// Accumulator, which feeds every per-update aggregate from one look at
// each update — and one entry per shape the input comes in:
//
//   - Analyze takes a world in memory (a Dataset): contiguous chunks of
//     the update slice fold into one Accumulator each, merged in chunk
//     order;
//   - StreamMRTDir takes bytes on disk: each updates.*.mrt archive
//     streams into its own Accumulator, the update slice never
//     materialized, merged in sorted file-name order.
//
// Both end in Accumulator.Analysis, which adds the one per-prefix
// reduction (the Figure 6 filter inference): the concurrent route view
// is sharded by prefix and the per-edge indication counts merge by
// summation. Ordered merging reproduces the exact serial fold order and
// indication counts commute, so every result is bit-identical across
// worker counts; the determinism tests assert workers=1 and workers=8
// agree on rendered output.
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

// foldChunks folds contiguous chunks of updates concurrently, one
// aggregate per chunk, and returns the aggregates in chunk order so the
// caller can merge them deterministically. fold receives each update
// together with its prepending-stripped AS path (computed once per
// update, shared by every consumer).
func foldChunks[A any](updates []feed.Event, workers int, mk func() A, fold func(agg A, ev *feed.Event, stripped []uint32)) []A {
	ranges := conc.Chunks(len(updates), workers)
	aggs := make([]A, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			agg := mk()
			for j := lo; j < hi; j++ {
				ev := &updates[j]
				fold(agg, ev, strippedPath(ev))
			}
			aggs[i] = agg
		}(i, r[0], r[1])
	}
	wg.Wait()
	return aggs
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

// Analyze runs the full §4 pipeline over an in-memory dataset: one
// chunked parallel fold builds every per-update aggregate, then the
// Figure 6 inference runs over the latest-route view sharded by prefix.
// knownBlackhole seeds the Figure 5 blackhole classifier (nil = only
// :666 classifies).
func (p *Pipeline) Analyze(ds *Dataset, knownBlackhole []bgp.Community) *Analysis {
	cls := IsBlackholeClassifier(knownBlackhole)
	accs := foldChunks(ds.Updates, p.workers(),
		func() *Accumulator { return newAccumulatorFor(cls) },
		func(a *Accumulator, ev *feed.Event, stripped []uint32) { a.addStripped(ev, stripped) })
	var acc *Accumulator
	if len(accs) == 0 {
		acc = newAccumulatorFor(cls)
	} else {
		acc = accs[0]
		for _, b := range accs[1:] {
			acc.Merge(b)
		}
	}
	for _, c := range ds.Collectors {
		acc.AddCollector(c)
	}
	return acc.Analysis(p)
}

// EvolutionMetrics returns the four Figure 3 series values of one world:
// unique ASes in communities, unique communities, absolute community
// count, and table entries (latest-route count). They are Analyze's Fig3.
func (p *Pipeline) EvolutionMetrics(ds *Dataset) (uniqueASes, uniqueComms, absolute, tableEntries int) {
	f := p.Analyze(ds, nil).Fig3
	return f.UniqueASes, f.UniqueCommunities, f.AbsoluteCommunities, f.TableEntries
}
