package watch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestInternedMatchesAModel drives one table through random acquires
// and releases over a small universe of paths, enough live values to
// grow the index and collide in it, and holds it to a reference count
// kept beside it: equal content has one id for as long as it is held,
// a released value is gone from the index, and every id names its
// value. Releases shift the index's slots back, the step a wrong probe
// bound or a wrong home test would break.
func TestInternedMatchesAModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab interned[[]uint32, uint32]
	universe := make([][]uint32, 400)
	for i := range universe {
		universe[i] = []uint32{uint32(i), uint32(i * 7), 3320}
	}
	refs := map[int]uint32{} // universe index → references held
	ids := map[int]uint32{}  // universe index → its id while held
	var held []int           // one element per reference, for release
	for step := 0; step < 20000; step++ {
		if len(held) == 0 || rng.Intn(5) < 3-2*(step/10000) {
			i := rng.Intn(len(universe))
			id := tab.acquire(slices.Clone(universe[i]), rng.Intn(2) == 0)
			if refs[i] > 0 && ids[i] != id {
				t.Fatalf("step %d: value %d acquired as id %d while held as %d", step, i, id, ids[i])
			}
			refs[i]++
			ids[i] = id
			held = append(held, i)
		} else {
			k := rng.Intn(len(held))
			i := held[k]
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			tab.release(ids[i])
			if refs[i]--; refs[i] == 0 {
				delete(refs, i)
			}
		}
		if step%97 != 0 && step != 19999 {
			continue
		}
		want := map[string]uint32{}
		for i, n := range refs {
			want[fmt.Sprint(universe[i])] = n
			if got := tab.at(ids[i]); !slices.Equal(got, universe[i]) {
				t.Fatalf("step %d: id %d names %v, want %v", step, ids[i], got, universe[i])
			}
		}
		checkTable(t, fmt.Sprintf("step %d", step), &tab, want)
	}
	for _, i := range held {
		tab.release(ids[i])
	}
	checkTable(t, "drained", &tab, map[string]uint32{})
}
