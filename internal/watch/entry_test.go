package watch

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// TestEntryIsCompact pins the ring's element: a window holds 32 of
// them per tracked prefix, so the entry is the monitor's largest piece
// of state. It is 40 bytes, against 144 for the feed.Event it
// replaced, and holds no pointer, so a ring is noscan memory the
// collector never reads; a field that grows it past 40 or brings a
// pointer, slice, string, map or interface in fails here.
func TestEntryIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 40 {
		t.Fatalf("a window entry is %d bytes, want at most 40", got)
	}
	typ := reflect.TypeOf(entry{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("entry.%s is a %s: a ring entry must hold no pointer", f.Name, f.Type)
		}
	}
}

// checkTables requires every shard's intern tables to hold exactly the
// distinct non-empty paths and community sets its rings reference, each
// with one reference per entry that holds it, counted from the rings.
func checkTables(t *testing.T, how string, e *Engine) {
	t.Helper()
	for si, s := range e.shards {
		s.mu.Lock()
		paths, comms := map[string]uint32{}, map[string]uint32{}
		for _, ps := range s.prefixes {
			for i := 0; i < ps.Len(); i++ {
				ev := ps.At(i)
				if p := ev.ASPath(); len(p) > 0 {
					paths[fmt.Sprint(p)]++
				}
				if c := ev.Communities(); len(c) > 0 {
					comms[fmt.Sprint(c)]++
				}
			}
		}
		checkTable(t, fmt.Sprintf("%s: shard %d paths", how, si), &s.t.paths, paths)
		checkTable(t, fmt.Sprintf("%s: shard %d community sets", how, si), &s.t.comms, comms)
		s.mu.Unlock()
	}
}

func checkTable[V ~[]E, E ~uint32](t *testing.T, how string, tab *interned[V, E], want map[string]uint32) {
	t.Helper()
	got := map[string]uint32{}
	for id, v := range tab.vals {
		if v != nil {
			got[fmt.Sprint(v)] = tab.ids[id].refs
		}
	}
	indexed := 0
	for _, s := range tab.slots {
		if s != 0 {
			indexed++
		}
	}
	if len(got) != len(want) || tab.n != len(want) || indexed != len(want) {
		t.Fatalf("%s: table holds %d values (%d counted, %d indexed), the rings %d", how, len(got), tab.n, indexed, len(want))
	}
	for v, refs := range want {
		if got[v] != refs {
			t.Fatalf("%s: %s has %d references in the table, %d entries in the rings", how, v, got[v], refs)
		}
	}
}

// TestTablesHoldWhatTheWindowsHold pins the intern tables' lifetime
// rule: a value stays stored exactly as long as some ring entry holds
// it, whether the ring overwrote its entries, aged them out or was
// rebuilt from an export.
func TestTablesHoldWhatTheWindowsHold(t *testing.T) {
	const window = 8
	p, q := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	t0 := time.Date(2018, 4, 3, 12, 0, 0, 0, time.UTC)
	event := func(pfx netip.Prefix, i int, at time.Time) feed.Event {
		peer := uint32(65000 + i)
		return feed.Event{Prefix: pfx, Time: at, PeerAS: peer, ASPath: []uint32{peer, 3320, uint32(i % 3)},
			Communities: bgp.NewCommunitySet(bgp.C(3320, uint16(i)), bgp.C(65535, 666))}
	}

	// Ten windows' worth of distinct values through one prefix, with a
	// second prefix sharing some of them and one event carrying none.
	e := NewEngine(Config{Shards: 2, WindowEvents: window, Window: time.Hour})
	defer e.Close()
	for i := 0; i < 10*window; i++ {
		e.Ingest(event(p, i, t0.Add(time.Duration(i)*time.Second)))
		if i%4 == 0 {
			e.Ingest(event(q, i, t0.Add(time.Duration(i)*time.Second)))
		}
	}
	e.Ingest(feed.Event{Prefix: q, Time: t0.Add(time.Minute), Withdraw: true})
	e.Flush()
	checkTables(t, "overwritten", e)

	// Restored into engines of other shapes, a smaller window included:
	// the restore pushes every event through the ring again.
	for _, cfg := range []Config{{Shards: 3, WindowEvents: window, Window: time.Hour}, {Shards: 1, WindowEvents: window / 2, Window: time.Hour}} {
		r := NewEngine(cfg)
		if err := r.RestoreState(e.ExportState()); err != nil {
			t.Fatal(err)
		}
		checkTables(t, fmt.Sprintf("restored at %d shards, window %d", cfg.Shards, cfg.WindowEvents), r)
		r.Close()
	}

	// An event an hour and more later ages every older entry out.
	e.Ingest(event(p, 1000, t0.Add(2*time.Hour)))
	e.Ingest(event(q, 1001, t0.Add(2*time.Hour)))
	e.Flush()
	checkTables(t, "aged out", e)
	for _, pfx := range []netip.Prefix{p, q} {
		if info, _ := e.PrefixInfo(pfx); info.WindowEvents != 1 {
			t.Fatalf("%v holds %d events after aging out, want 1", pfx, info.WindowEvents)
		}
	}
}
