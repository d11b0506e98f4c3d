package durable

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/watch"
)

// fnvIndex is the int-valued form of hashOwner's partition: hashOwner
// (index, of) accepts exactly the prefixes with fnvIndex(of)(p) ==
// index, so a source fleet built on hashOwner and a reshard driven by
// fnvIndex agree on ownership.
func fnvIndex(of int) func(netip.Prefix) int {
	return func(p netip.Prefix) int { return int(netx.PrefixHash(p) % uint32(of)) }
}

// runSrcFleet drives a 2-shard fleet over the full feed with
// deliberately different durability histories: shard 0 checkpoints
// mid-stream and then dies kill -9 style (its state is cp@mid plus a
// WAL tail), shard 1 shuts down gracefully (its state is entirely a
// cp@end, with every WAL record checkpoint-covered). Returns the two
// directories and the mid-stream watermark.
func runSrcFleet(t *testing.T, events []feed.Event) (dirs []string, mid uint64) {
	t.Helper()
	mid = uint64(len(events) / 2)
	for k := 0; k < 2; k++ {
		dir := filepath.Join(t.TempDir(), "src")
		dirs = append(dirs, dir)
		eng, sem := newPair(2 + k)
		st, _, err := Open(eng, sem, Options{
			Dir:           dir,
			Owner:         hashOwner(k, 2),
			FsyncInterval: noSync,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		if k == 0 {
			for _, ev := range events[:mid] {
				sink(ev)
			}
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for _, ev := range events[mid:] {
				sink(ev)
			}
			if err := st.wal.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			st.crash()
		} else {
			for _, ev := range events {
				sink(ev)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		sem.Close()
	}
	return dirs, mid
}

// mergedAlerts boots one store per destination directory, lets
// recovery rebuild it, and returns the sequence-merged alert union —
// the byte surface the frontend serves.
func mergedAlerts(t *testing.T, dirs []string, wantCpSeq uint64) []byte {
	t.Helper()
	var merged []watch.Alert
	for k, dir := range dirs {
		eng, sem := newPair(2 + k)
		st, rec, err := Open(eng, sem, Options{
			Dir:           dir,
			Owner:         hashOwner(k, len(dirs)),
			FsyncInterval: noSync,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.CheckpointSeq != wantCpSeq {
			t.Fatalf("dst %d recovered checkpoint %d, want %d", k, rec.CheckpointSeq, wantCpSeq)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		merged = append(merged, eng.Alerts()...)
		eng.Close()
		sem.Close()
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReshardByteIdentity is the tentpole proof: a 2-shard fleet with
// mixed durability histories resharded to 3 shards (and, from the same
// sources, collapsed to 1) serves a merged alert surface byte-identical
// to an uninterrupted single-process run over the same feed.
func TestReshardByteIdentity(t *testing.T) {
	events := churnEvents(t)
	wantAlerts, _, _ := referenceRun(t, events)
	srcs, mid := runSrcFleet(t, events)

	dst3 := []string{
		filepath.Join(t.TempDir(), "d0"),
		filepath.Join(t.TempDir(), "d1"),
		filepath.Join(t.TempDir(), "d2"),
	}
	rep, err := Reshard(ReshardOptions{SrcDirs: srcs, DstDirs: dst3, Owner: fnvIndex(3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq != mid {
		t.Fatalf("reshard checkpoint seq %d, want min source watermark %d", rep.CheckpointSeq, mid)
	}
	// Shard 1 closed gracefully: its whole WAL is checkpoint-covered and
	// must have been dropped rather than re-applied.
	if rep.Covered == 0 {
		t.Fatal("no covered records dropped; shard 1's graceful-close WAL should be fully covered")
	}
	if rep.Records == 0 {
		t.Fatal("reshard scattered no records; shard 0's post-checkpoint tail should survive")
	}
	// Semantics state is not split: every source checkpoint carries a
	// dictionary, no destination checkpoint does, and the new fleet's
	// /dict restarts from the replayed tail and the live feed.
	hasSemantics := func(dir string) bool {
		cp, err := loadLatestSnapshot(dir)
		if err != nil || cp == nil {
			t.Fatalf("%s: checkpoint %v, err %v", dir, cp, err)
		}
		return cp.Semantics != nil
	}
	for _, dir := range srcs {
		if !hasSemantics(dir) {
			t.Fatalf("source %s: checkpoint carries no semantics section", dir)
		}
	}
	for _, dir := range dst3 {
		if hasSemantics(dir) {
			t.Fatalf("destination %s: checkpoint carries a semantics section", dir)
		}
	}
	if got := mergedAlerts(t, dst3, mid); !bytes.Equal(got, wantAlerts) {
		t.Fatalf("2→3 resharded alert union differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantAlerts))
	}

	// Collapse the same sources to a single shard: the union must fold
	// into one directory that recovers to the identical surface.
	dst1 := []string{filepath.Join(t.TempDir(), "solo")}
	if _, err := Reshard(ReshardOptions{SrcDirs: srcs, DstDirs: dst1, Owner: fnvIndex(1)}); err != nil {
		t.Fatal(err)
	}
	if got := mergedAlerts(t, dst1, mid); !bytes.Equal(got, wantAlerts) {
		t.Fatal("2→1 resharded alert set differs from uninterrupted run")
	}
}

// TestReshardWithoutCheckpoints covers the checkpoint-less fleet: every
// source is WAL-only (crashed before any snapshot), so the reshard
// scatters raw records and writes no destination checkpoint.
func TestReshardWithoutCheckpoints(t *testing.T) {
	events := churnEvents(t)
	wantAlerts, _, _ := referenceRun(t, events)
	var srcs []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(t.TempDir(), "src")
		srcs = append(srcs, dir)
		eng, sem := newPair(3)
		st, _, err := Open(eng, sem, Options{Dir: dir, Owner: hashOwner(k, 2), FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		for _, ev := range events {
			sink(ev)
		}
		if err := st.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		st.crash()
		eng.Close()
		sem.Close()
	}
	dst := []string{filepath.Join(t.TempDir(), "d0"), filepath.Join(t.TempDir(), "d1"), filepath.Join(t.TempDir(), "d2")}
	rep, err := Reshard(ReshardOptions{SrcDirs: srcs, DstDirs: dst, Owner: fnvIndex(3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq != 0 {
		t.Fatalf("checkpoint-less sources produced checkpoint seq %d", rep.CheckpointSeq)
	}
	if rep.Covered != 0 {
		t.Fatalf("checkpoint-less sources dropped %d covered records", rep.Covered)
	}
	if got := mergedAlerts(t, dst, 0); !bytes.Equal(got, wantAlerts) {
		t.Fatal("WAL-only resharded alert union differs from uninterrupted run")
	}
}

// TestReshardPrefixlessHasOneOwner: a prefix-less event is journaled
// by the one source shard that owns netip.Prefix{} and scattered to its
// one new owner, like every other record.
func TestReshardPrefixlessHasOneOwner(t *testing.T) {
	records := []feed.Event{
		{Source: "c1", PeerAS: 64500, Prefix: netip.MustParsePrefix("10.0.0.0/24"), ASPath: []uint32{64500, 64501}},
		{Source: "c1", PeerAS: 64500, Prefix: netip.MustParsePrefix("192.0.2.0/24"), ASPath: []uint32{64500, 64502}},
		{Source: "c1", PeerAS: 64500}, // no prefix
		{Source: "c1", PeerAS: 64500, Prefix: netip.MustParsePrefix("198.51.100.0/24"), Withdraw: true},
	}
	var srcs []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(t.TempDir(), "src")
		srcs = append(srcs, dir)
		eng, sem := newPair(2)
		st, _, err := Open(eng, sem, Options{Dir: dir, Owner: hashOwner(k, 2), FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		// Checkpoint before the feed so every record lands in the
		// uncovered WAL tail.
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range records {
			sink(ev)
		}
		if err := st.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		st.crash()
		eng.Close()
		sem.Close()
	}
	dst := []string{filepath.Join(t.TempDir(), "d0"), filepath.Join(t.TempDir(), "d1"), filepath.Join(t.TempDir(), "d2")}
	owner := fnvIndex(len(dst))
	rep, err := Reshard(ReshardOptions{SrcDirs: srcs, DstDirs: dst, Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(records) {
		t.Fatalf("scattered %d records, want %d", rep.Records, len(records))
	}
	total := 0
	for _, n := range rep.PerDst {
		total += n
	}
	if total != rep.Records {
		t.Fatalf("wrote %d records across destinations, want %d: one each", total, rep.Records)
	}
	for k, dir := range dst {
		var got, want []netip.Prefix
		for r, err := range iterSrcRecords(dir) {
			if err != nil {
				t.Fatal(err)
			}
			ev, err := DecodeEvent(r.payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ev.Prefix)
		}
		for _, ev := range records {
			if owner(ev.Prefix) == k {
				want = append(want, ev.Prefix)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dst %d holds %v, want %v (the prefix-less record belongs to dst %d)", k, got, want, owner(netip.Prefix{}))
		}
	}
}

// TestReshardRefusesASourcePassedTwice: every record and every window
// has one owner, so one found in two source directories means one
// shard's state was passed twice (two replicas of one range, say).
// Collapsing the copies would hide that; Reshard refuses and names both
// directories. A copy is found by its WAL records, checkpointed or
// not, and by its checkpoint windows when its WAL is gone.
func TestReshardRefusesASourcePassedTwice(t *testing.T) {
	events := churnEvents(t)
	for _, c := range []struct {
		name      string
		snapshot  bool // checkpoint before the feed: the WAL tail holds every record
		graceful  bool // Close: the final checkpoint holds every window
		twinNoWAL bool
		want      string
	}{
		{"no checkpoint", false, false, false, "sequence"},
		{"WAL tail", true, false, false, "sequence"},
		{"checkpoint only", false, true, true, "window"},
	} {
		src := filepath.Join(t.TempDir(), "src")
		eng, sem := newPair(2)
		st, _, err := Open(eng, sem, Options{Dir: src, Owner: hashOwner(0, 2), FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		if c.snapshot {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		sink := st.Sink()
		for _, ev := range events {
			sink(ev)
		}
		if c.graceful {
			err = st.Close()
		} else if err = st.wal.Sync(); err == nil {
			st.crash()
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		sem.Close()
		twin := filepath.Join(t.TempDir(), "twin")
		if err := os.CopyFS(twin, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if c.twinNoWAL {
			segs, _ := filepath.Glob(filepath.Join(twin, "wal-*.seg"))
			for _, seg := range segs {
				if err := os.Remove(seg); err != nil {
					t.Fatal(err)
				}
			}
		}
		dst := []string{filepath.Join(t.TempDir(), "d0")}
		_, err = Reshard(ReshardOptions{SrcDirs: []string{src, twin}, DstDirs: dst, Owner: fnvIndex(1)})
		if err == nil || !strings.Contains(err.Error(), c.want) ||
			!strings.Contains(err.Error(), src) || !strings.Contains(err.Error(), twin) {
			t.Fatalf("%s: a source passed twice must be refused by its %s, naming both copies; got %v", c.name, c.want, err)
		}
	}
}

// TestReshardRefusesMixedSources: one checkpointed source and one
// WAL-only source cannot be merged safely (the checkpointed source may
// have truncated records only its snapshot reflects), so Reshard must
// refuse with actionable advice.
func TestReshardRefusesMixedSources(t *testing.T) {
	events := churnEvents(t)
	var srcs []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(t.TempDir(), "src")
		srcs = append(srcs, dir)
		eng, sem := newPair(2)
		st, _, err := Open(eng, sem, Options{Dir: dir, Owner: hashOwner(k, 2), FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		for _, ev := range events[:50] {
			sink(ev)
		}
		if k == 0 {
			if err := st.Close(); err != nil { // graceful: checkpoint
				t.Fatal(err)
			}
		} else {
			if err := st.wal.Sync(); err != nil {
				t.Fatal(err)
			}
			st.crash() // WAL only, never checkpointed
		}
		eng.Close()
		sem.Close()
	}
	dst := []string{filepath.Join(t.TempDir(), "d0")}
	_, err := Reshard(ReshardOptions{SrcDirs: srcs, DstDirs: dst, Owner: fnvIndex(1)})
	if err == nil || !strings.Contains(err.Error(), "mix") {
		t.Fatalf("mixed sources must be refused, got %v", err)
	}
}

// TestReshardRefusesDirtyDestination: scattering into a directory that
// already holds durability state would interleave sequence histories.
func TestReshardRefusesDirtyDestination(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	eng, sem := newPair(2)
	st, _, err := Open(eng, sem, Options{Dir: src, FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	sem.Close()

	dirty := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirty, "wal-00000000000000000001.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Reshard(ReshardOptions{SrcDirs: []string{src}, DstDirs: []string{dirty}, Owner: fnvIndex(1)}); err == nil {
		t.Fatal("dirty destination must be refused")
	}
	if _, err := Reshard(ReshardOptions{SrcDirs: []string{src}, DstDirs: []string{src}, Owner: fnvIndex(1)}); err == nil {
		t.Fatal("source reused as destination must be refused")
	}
}
