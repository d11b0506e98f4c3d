package watch_test

import (
	"testing"

	"bgpworms/internal/watch"
)

// TestDispatchIdleAllocatesNothing guards the drain hook's idle cost: a
// feed read through feed.DrainReader calls Dispatch once per socket
// read, almost always with nothing pending.
func TestDispatchIdleAllocatesNothing(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 4})
	defer e.Close()
	for _, ev := range churnEvents(t)[:50] {
		e.Ingest(ev)
	}
	e.Flush()
	if avg := testing.AllocsPerRun(1000, e.Dispatch); avg != 0 {
		t.Fatalf("idle Dispatch allocates %.1f objects per call, want 0", avg)
	}
}
