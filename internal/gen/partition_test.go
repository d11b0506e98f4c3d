package gen

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"bgpworms/internal/core"
)

// wholeWorld converges p's world the way Build and RunChurn do, and
// returns its Dataset and the deliveries each op caused, build ops
// first, then churn's.
func wholeWorld(t *testing.T, p Params) (*core.Dataset, []int) {
	t.Helper()
	w, ops, err := plan(p)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := w.Net.Apply(ops...)
	if err != nil {
		t.Fatal(err)
	}
	churn, _ := w.churnOps()
	more, err := w.Net.Apply(churn...)
	if err != nil {
		t.Fatal(err)
	}
	return core.FromCollectors(w.Collectors), append(counts, more...)
}

// TestPartitionedArchivesEqualWholeWorld: a world converged in prefix
// partitions and merged by op (PlanArchives, Converge, Merge) is exactly
// the Dataset of the whole world, at any partition count — one, a few,
// a count that leaves some partitions empty, and more partitions than
// the world has prefixes — with one or several partitions in flight.
// Each partition's per-op delivery counts, put back at their ops'
// places, are the whole world's Apply counts. (The op ends the merge
// relies on are held to the serial run and the rounds oracle by
// simnet's TestApplyMatchesSerial.)
func TestPartitionedArchivesEqualWholeWorld(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		p, err := Preset(scale)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCounts := wholeWorld(t, p)
		if len(want.Updates) == 0 {
			t.Fatalf("%s: the whole world recorded nothing", scale)
		}
		pl, err := PlanArchives(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.ops) != len(wantCounts) {
			t.Fatalf("%s: the plan holds %d ops, the whole world applied %d", scale, len(pl.ops), len(wantCounts))
		}
		prefixes := map[netip.Prefix]bool{}
		for _, op := range pl.ops {
			prefixes[op.Prefix.Masked()] = true
		}
		for _, workers := range []int{1, 4} {
			pl.workers = workers
			for _, k := range []int{1, 2, 3, 7, len(prefixes) + 5} {
				where := fmt.Sprintf("%s workers=%d K=%d", scale, workers, k)
				ar, err := pl.converge(k)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				counts := make([]int, len(pl.ops))
				for _, pt := range ar.parts {
					for i, g := range pt.ops {
						counts[g] = pt.counts[i]
					}
				}
				if !slices.Equal(counts, wantCounts) {
					t.Errorf("%s: per-op deliveries differ from the whole world's", where)
				}
				got := core.NewDataset(pl.Collectors, ar.Merge())
				if !reflect.DeepEqual(got.Collectors, want.Collectors) {
					t.Fatalf("%s: collectors %+v, whole world %+v", where, got.Collectors, want.Collectors)
				}
				if !reflect.DeepEqual(got.Updates, want.Updates) {
					t.Fatalf("%s: %s", where, firstEventDiff(got, want))
				}
			}
		}
	}
}

// firstEventDiff names the first update the two Datasets disagree on.
func firstEventDiff(got, want *core.Dataset) string {
	for i := range min(len(got.Updates), len(want.Updates)) {
		if !reflect.DeepEqual(got.Updates[i], want.Updates[i]) {
			return fmt.Sprintf("update %d of %d/%d differs:\n got %+v\nwant %+v", i, len(got.Updates), len(want.Updates), got.Updates[i], want.Updates[i])
		}
	}
	return fmt.Sprintf("%d updates, the whole world %d", len(got.Updates), len(want.Updates))
}
