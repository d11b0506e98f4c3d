// Command worms runs the paper's §4 measurement pipeline and prints every
// table and figure of the passive analysis: Table 1, Table 2, Figure 3,
// Figures 4a/4b, Figures 5a/5b/5c, the §4.3 transit-propagator count, and
// the Figure 6 filter inference.
//
// By default it generates a synthetic Internet in memory. With -mrt it
// instead consumes the MRT archives written by genesis, exercising the
// same wire-format path the paper's pipeline used: each archive is
// classified as a byte stream, never materialized as an update slice,
// so memory is bounded by the aggregates and not by the archive size.
// When generating, the world converges in prefix partitions: its ops are
// split by a hash of their prefix into 4 × workers partitions, each
// converged on a fork of the routeless world at one engine worker and
// kept as compact records, and the analysis folds each collector's
// records back in op order, one event at a time. -workers sizes
// that partition pool, at most that many partitions in flight, and the
// analysis worker pool (0 or negative = one per CPU for both). The
// printed report is byte-identical for every value under a fixed seed.
//
// Usage:
//
//	worms -scale small
//	worms -scale small -workers 8
//	genesis -scale small -out data && worms -mrt data
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/stats"
)

func main() {
	world := gen.NewFlags(flag.CommandLine, "small")
	mrtDir := flag.String("mrt", "", "stream-classify the updates.*.mrt archives in this directory instead of simulating")
	workers := flag.Int("workers", 0, "worker pool size (0 = one per CPU): the analysis pool and, when generating, the partition pool, which converges the world in 4 × workers prefix partitions, this many at a time")
	// -engine exists for bench/, which passes "delta"; it goes when a
	// benchmark PR drops the argument.
	engine := flag.String("engine", "delta", "simulation engine: delta (the only one)")
	years := flag.Bool("evolution", true, "compute the Figure 3 time series (builds one Internet per year)")
	traceOut := flag.String("trace", "", "write a JSON span trace of the pipeline phases (plan/converge/analyze/render/evolution, or stream with -mrt), each with heap_mb and retained_mb at its end")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}
	if *mrtDir != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" || f.Name == "seed" {
				fail(fmt.Errorf("-mrt analyses the archives' world and reads no -%s", f.Name))
			}
		})
	}
	if *engine != "" && *engine != "delta" {
		fail(fmt.Errorf("-engine %q: the only engine is \"delta\"", *engine))
	}

	// tr stays nil without -trace; obs span calls on a nil trace are
	// no-ops, so the pipeline below needs no conditionals.
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("worms")
		defer func() {
			if err := tr.WriteFile(*traceOut); err != nil {
				fail(err)
			}
		}()
	}

	pipe := core.NewPipeline(*workers)

	if *mrtDir != "" {
		sp := tr.Start("stream")
		a, err := pipe.StreamMRTDir(*mrtDir, nil)
		end(sp)
		if err != nil {
			fail(err)
		}
		printAnalysis(os.Stdout, a)
		return
	}

	p, err := world.Params()
	if err != nil {
		fail(err)
	}
	p.Workers = *workers
	// The world converges in prefix partitions (gen.PlanArchives): each
	// partition's routers and arena are garbage once its collectors'
	// records are taken, so no whole world is ever live, and the
	// analysis folds the records without an update slice.
	sp := tr.Start("plan")
	sp.SetAttr("scale", world.Scale)
	plan, err := gen.PlanArchives(p)
	end(sp)
	if err != nil {
		fail(err)
	}
	sp = tr.Start("converge")
	sp.SetAttr("partitions", strconv.Itoa(plan.Partitions()))
	parts, err := plan.Converge()
	end(sp)
	if err != nil {
		fail(err)
	}
	sp = tr.Start("analyze")
	a := pipe.AnalyzeArchives(plan.Collectors, parts.Each, plan.Registry.All())
	end(sp)
	sp = tr.Start("render")
	printAnalysis(os.Stdout, a)
	end(sp)

	if *years {
		evoSp := tr.Start("evolution")
		defer end(evoSp)
		fmt.Println("== Figure 3: community use over time ==")
		base := gen.Tiny()
		base.Seed = p.Seed
		base.Workers = *workers
		pts, err := gen.Evolution(base, []int{2010, 2012, 2014, 2016, 2018}, func(w *gen.Internet) (int, int, int, int) {
			return pipe.EvolutionMetrics(core.FromCollectors(w.Collectors))
		})
		if err != nil {
			fail(err)
		}
		t := stats.NewTable("Year", "UniqueASes", "UniqueCommunities", "AbsoluteCommunities", "TableEntries")
		for _, p := range pts {
			t.Row(p.Year, p.UniqueASes, p.UniqueCommunities, p.AbsoluteCommunities, p.TableEntries)
		}
		fmt.Println(t.String())
	}
}

func printAnalysis(w io.Writer, a *core.Analysis) {
	fmt.Fprintln(w, "== Table 1: dataset overview ==")
	fmt.Fprintln(w, core.RenderTable1(a.Table1))

	fmt.Fprintln(w, "== Table 2: ASes with observed communities ==")
	fmt.Fprintln(w, core.RenderTable2(a.Table2))

	fmt.Fprintln(w, "== Figure 4a: updates with communities, per collector ==")
	fmt.Fprintln(w, core.RenderFigure4a(a.Fig4a))
	fmt.Fprintf(w, "overall share of announcements with >=1 community: %.1f%%\n\n", a.Share*100)

	fmt.Fprintln(w, "== Figure 4b: communities and associated ASes per update ==")
	fmt.Fprintln(w, core.RenderFigure4b(a.Fig4b))

	all, bh := a.Prop.Figure5a()
	fmt.Fprintln(w, "== Figure 5a: propagation distance ECDF (all vs blackholing) ==")
	fmt.Fprintln(w, core.RenderFigure5a(all, bh))
	fmt.Fprintf(w, "mean distance: all=%.2f blackholing=%.2f hops\n\n", all.Mean(), bh.Mean())

	fmt.Fprintln(w, "== Figure 5b: relative propagation distance by path length ==")
	fmt.Fprintln(w, core.RenderFigure5b(a.Prop.Figure5b(3, 10)))

	off, on := a.Prop.Figure5c(10)
	fmt.Fprintln(w, "== Figure 5c: top-10 community values off-path vs on-path ==")
	fmt.Fprintln(w, core.RenderFigure5c(off, on))

	fmt.Fprintln(w, "== §4.3: transit ASes relaying foreign communities ==")
	fmt.Fprintf(w, "%d of %d transit ASes (%s) forward received communities onward\n\n",
		a.Transit.Propagators, a.Transit.TransitASes, stats.Pct(a.Transit.Propagators, a.Transit.TransitASes))

	fmt.Fprintln(w, "== Figure 6: community forwarding vs filtering ==")
	fmt.Fprintln(w, core.RenderFilterSummary(a.Filter.Summarize(10)))
	fmt.Fprintln(w, "Figure 6b log-log bins (x=filtered, y=forwarded, count):")
	for _, b := range a.Filter.Hexbin(1, 2) {
		fmt.Fprintf(w, "  (%.1f, %.1f) -> %d\n", b.X, b.Y, b.Count)
	}
	fmt.Fprintln(w)
}

// end closes sp, recording at its end as heap_mb the bytes of heap
// objects, live or not yet swept, and as retained_mb the memory the
// runtime holds from the OS: all it has mapped less the heap pages it
// has released. Peak RSS follows retained_mb, which counts the free
// pages heap_mb cannot show. runtime/metrics reads both without
// stopping the world.
func end(sp *obs.Span) {
	if sp == nil {
		return
	}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	mb := func(b uint64) string { return strconv.FormatFloat(float64(b)/(1<<20), 'f', 1, 64) }
	sp.SetAttr("heap_mb", mb(s[0].Value.Uint64()))
	sp.SetAttr("retained_mb", mb(s[1].Value.Uint64()-s[2].Value.Uint64()))
	sp.End()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "worms:", err)
	os.Exit(1)
}
