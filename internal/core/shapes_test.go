package core

import (
	"testing"

	"bgpworms/internal/gen"
	"bgpworms/internal/stats"
)

// TestPaperShapes holds the generated worlds to the paper's shapes, so a
// change that moves output bytes on purpose still has to keep the
// reproduction looking like the paper. It analyses small seeds 1-3
// through the path worms takes (gen.PlanArchives, Converge, Merge,
// Analyze). Small is the largest world tier-1 affords three of; its
// values fall short of the paper's in places, so each band is set
// around what seeds 1-3 measure (named in the comments) rather than at
// the paper's figure, wide enough for a calibration change that keeps
// the shape and narrow enough to fail one that loses it.
func TestPaperShapes(t *testing.T) {
	var shares []float64
	origins, v6Origins := 0, 0
	var blackhole []float64
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.Small()
		p.Seed = seed
		plan, err := gen.PlanArchives(p)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := plan.Converge()
		if err != nil {
			t.Fatal(err)
		}
		ds := NewDataset(plan.Collectors, parts.Merge())
		all, v6 := map[uint32]bool{}, map[uint32]bool{}
		for _, ev := range ds.Updates {
			if ev.Withdraw || len(ev.ASPath) == 0 {
				continue
			}
			o := ev.ASPath[len(ev.ASPath)-1]
			all[o] = true
			if ev.Prefix.Addr().Is6() {
				v6[o] = true
			}
		}
		origins, v6Origins = origins+len(all), v6Origins+len(v6)
		a := NewPipeline(0).Analyze(ds, plan.Registry.All())
		shares = append(shares, a.Share)
		for _, o := range a.Prop.Observations {
			if d := o.Distance(); o.Blackhole && d >= 0 {
				blackhole = append(blackhole, float64(d))
			}
		}
	}

	// §4.2: more than 75% of announcements carry at least one community.
	// Seeds 1-3 read 73.8%, 69.0% and 55.2% (mean 66.0%); medium seed 1
	// reads 76.9%. Every seed must keep a majority, and the mean its band.
	mean := 0.0
	for seed, s := range shares {
		if s <= 0.5 {
			t.Errorf("§4.2: seed %d: %.1f%% of announcements carry communities, not a majority", seed+1, s*100)
		}
		mean += s / float64(len(shares))
	}
	if mean < 0.60 || mean > 0.85 {
		t.Errorf("§4.2: %.1f%% of announcements carry communities over seeds 1-3, want 60-85%% (measured 66.0%%)", mean*100)
	}

	// Table 1: the paper's dataset is 8% IPv6, which the generator models
	// as the share of origins that also announce an IPv6 prefix
	// (Params.V6Share). Seeds 1-3 read 46 of 600 origins seen at a
	// collector (7.7%).
	if share := float64(v6Origins) / float64(origins); share < 0.05 || share > 0.11 {
		t.Errorf("Table 1: %d of %d origins (%.1f%%) announce IPv6, want 5-11%% (measured 7.7%%)", v6Origins, origins, share*100)
	}

	// Fig. 5a: blackhole communities mostly stop close to the tagger, and
	// a long tail travels far (the paper sees them up to 11 hops out).
	// Seeds 1-3 record 70 blackhole observations, median 2 hops, the
	// furthest 6 hops out.
	bh := stats.NewECDF(blackhole)
	med, furthest := bh.Quantile(0.5), bh.Quantile(1)
	if bh.Len() < 20 {
		t.Fatalf("Fig. 5a: %d blackhole observations over seeds 1-3, want at least 20 (measured 70)", bh.Len())
	}
	if med > 3 {
		t.Errorf("Fig. 5a: the median blackhole community travels %v hops, want at most 3 (measured 2)", med)
	}
	if furthest < 5 || furthest > 12 || furthest < 2*med {
		t.Errorf("Fig. 5a: the furthest blackhole community travels %v hops (median %v), want 5-12 and at least twice the median (measured 6)", furthest, med)
	}
}
