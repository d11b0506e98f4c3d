package durable

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpworms/internal/core"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// churnEvents flattens the deterministic churn feed into an event list
// (the same harness the watch-engine state tests use), so durability
// tests can cut the stream anywhere and replay the remainder.
func churnEvents(t testing.TB) []feed.Event {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	events := core.FromCollectors(w.Collectors).Updates
	if len(events) < 300 {
		t.Fatalf("churn feed too small for durability splits: %d events", len(events))
	}
	return events
}

// newPair builds a watch engine with a mirrored semantics engine, the
// daemon's engine arrangement.
func newPair(shards int) (*watch.Engine, *semantics.Engine) {
	sem := semantics.NewEngine(semantics.Config{})
	eng := watch.NewEngine(watch.Config{Shards: shards, Semantics: sem})
	return eng, sem
}

// referenceRun ingests every event into a fresh engine pair and returns
// the canonical outputs an uninterrupted daemon would serve.
func referenceRun(t testing.TB, events []feed.Event) (alerts, dict []byte, stats watch.Stats) {
	t.Helper()
	eng, sem := newPair(4)
	defer eng.Close()
	defer sem.Close()
	for _, ev := range events {
		eng.Ingest(ev)
	}
	eng.Flush()
	return alertsJSON(t, eng), dictJSON(t, sem), eng.Stats()
}

func alertsJSON(t testing.TB, e *watch.Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Alerts())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dictJSON is everything the dictionary engine holds, both ways it can
// be read: the classified entries a daemon serves and the evidence and
// fold count a checkpoint saves. Call it behind the watch engine's Flush.
func dictJSON(t testing.TB, s *semantics.Engine) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Entries []*semantics.Entry
		State   *semantics.State
	}{s.Snapshot().Entries(), s.ExportState()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreCrashRecovery is the tentpole proof: feed part of a stream
// through a durable store, checkpoint mid-way, make the WAL tail
// durable, then die as a kill -9 would (buffered bytes lost, no final
// checkpoint). A fresh process recovers and the feed resumes at the
// recovered watermark, where the store's numbering continues (a daemon
// re-reading its feed drops the first rec.Seq events itself). The final
// alert set, dictionary, and counters must be byte-identical to a run
// that never crashed.
func TestStoreCrashRecovery(t *testing.T) {
	events := churnEvents(t)
	wantAlerts, wantDict, wantStats := referenceRun(t, events)
	cut := 2 * len(events) / 3
	snapAt := cut / 2
	dir := t.TempDir()
	opts := Options{Dir: dir, FsyncInterval: noSync}

	eng1, sem1 := newPair(4)
	st1, rec, err := Open(eng1, sem1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 0 || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	sink := st1.Sink()
	for _, ev := range events[:snapAt] {
		sink(ev)
	}
	if err := st1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[snapAt:cut] {
		sink(ev)
	}
	if err := st1.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Err(); err != nil {
		t.Fatal(err)
	}
	st1.crash()
	eng1.Close()
	sem1.Close()

	// Restart: different shard/worker counts on purpose — the alert set
	// is invariant to both.
	eng2, sem2 := newPair(7)
	defer eng2.Close()
	defer sem2.Close()
	st2, rec2, err := Open(eng2, sem2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CheckpointSeq != uint64(snapAt) {
		t.Fatalf("recovered checkpoint %d, want %d", rec2.CheckpointSeq, snapAt)
	}
	if rec2.Seq != uint64(cut) {
		t.Fatalf("recovered watermark %d, want %d (synced tail)", rec2.Seq, cut)
	}
	if rec2.Replayed != cut-snapAt {
		t.Fatalf("replayed %d WAL records, want %d", rec2.Replayed, cut-snapAt)
	}
	// The feed resumes past the recovered watermark, and the store
	// splices it on.
	sink2 := st2.Sink()
	for _, ev := range events[rec2.Seq:] {
		sink2(ev)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := alertsJSON(t, eng2); !bytes.Equal(got, wantAlerts) {
		t.Fatalf("recovered alert set differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantAlerts))
	}
	if got := dictJSON(t, sem2); !bytes.Equal(got, wantDict) {
		t.Fatalf("recovered dictionary differs from uninterrupted run")
	}
	gotStats := eng2.Stats()
	if gotStats.Ingested != wantStats.Ingested || gotStats.Alerts != wantStats.Alerts ||
		gotStats.Processed != wantStats.Processed {
		t.Fatalf("recovered stats %+v, want %+v", gotStats, wantStats)
	}
}

// TestStoreOpenRecoversInOneScan pins what Open's single scan of the
// log keeps of the two it replaced: every intact record past the
// checkpoint replays and a torn tail on the final segment is cut, while
// damage in a sealed segment fails the open (the RUNBOOK's mid-log
// corruption) however many records were replayed before it.
func TestStoreOpenRecoversInOneScan(t *testing.T) {
	events := churnEvents(t)[:400]
	const snapAt = 100
	crashed := func(t *testing.T) (dir string, segs []string) {
		dir = t.TempDir()
		eng, sem := newPair(2)
		defer eng.Close()
		defer sem.Close()
		st, _, err := Open(eng, sem, Options{Dir: dir, FsyncInterval: noSync, SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		for i, ev := range events {
			if i == snapAt {
				if err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			sink(ev)
		}
		if err := st.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		st.crash()
		if segs, _ = filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 3 {
			t.Fatalf("%d WAL segments; the sealed-segment case needs at least 3", len(segs))
		}
		return dir, segs
	}
	damage := func(t *testing.T, path string, fromEnd int64) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[int64(len(raw))-fromEnd] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("torn final tail", func(t *testing.T) {
		dir, segs := crashed(t)
		damage(t, segs[len(segs)-1], 1) // the last record's last byte
		eng, sem := newPair(2)
		defer eng.Close()
		defer sem.Close()
		st, rec, err := Open(eng, sem, Options{Dir: dir, FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if rec.CheckpointSeq != snapAt || rec.TornBytes == 0 ||
			rec.Replayed != len(events)-snapAt-1 || rec.Seq != uint64(len(events)-1) {
			t.Fatalf("recovered %+v; want checkpoint %d, torn bytes, %d replayed to seq %d",
				rec, snapAt, len(events)-snapAt-1, len(events)-1)
		}
		if got, want := eng.Stats().Ingested, uint64(len(events)-1); got != want {
			t.Fatalf("engine holds %d events, want %d", got, want)
		}
	})
	t.Run("damaged sealed segment", func(t *testing.T) {
		dir, segs := crashed(t)
		damage(t, segs[len(segs)-2], 1)
		eng, sem := newPair(2)
		defer eng.Close()
		defer sem.Close()
		_, _, err := Open(eng, sem, Options{Dir: dir, FsyncInterval: noSync})
		if err == nil || !strings.Contains(err.Error(), "torn tail but is not the final segment") {
			t.Fatalf("Open over a damaged sealed segment: %v", err)
		}
	})
}

// TestStoreLiveResume covers the non-re-readable path: the feed resumes
// mid-stream after recovery, so the store continues the recovered
// numbering instead of skipping.
func TestStoreLiveResume(t *testing.T) {
	events := churnEvents(t)
	wantAlerts, wantDict, _ := referenceRun(t, events)
	cut := len(events) / 2
	dir := t.TempDir()
	opts := Options{Dir: dir, FsyncInterval: noSync}

	eng1, sem1 := newPair(3)
	st1, _, err := Open(eng1, sem1, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := st1.Sink()
	for _, ev := range events[:cut] {
		sink(ev)
	}
	// Checkpoint, then die without it being the final flush: this is a
	// crash immediately after a snapshot, so nothing is lost and a live
	// feed can resume exactly at the cut.
	if err := st1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st1.crash()
	eng1.Close()
	sem1.Close()

	eng2, sem2 := newPair(5)
	defer eng2.Close()
	defer sem2.Close()
	st2, rec, err := Open(eng2, sem2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != uint64(cut) {
		t.Fatalf("recovered watermark %d, want %d", rec.Seq, cut)
	}
	sink2 := st2.Sink()
	for _, ev := range events[cut:] {
		sink2(ev)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := alertsJSON(t, eng2); !bytes.Equal(got, wantAlerts) {
		t.Fatal("live-resume alert set differs from uninterrupted run")
	}
	if got := dictJSON(t, sem2); !bytes.Equal(got, wantDict) {
		t.Fatal("live-resume dictionary differs from uninterrupted run")
	}
}

// hashOwner partitions the prefix space by netx.PrefixHash, the
// simplest deterministic 1-of-n ownership function.
func hashOwner(index, of int) func(netip.Prefix) bool {
	return func(p netip.Prefix) bool { return fnvIndex(of)(p) == index }
}

// TestStoreShardedByteIdentity proves the scatter-gather claim at the
// store level: N stores, each owning a slice of the prefix space, all
// consuming the identical full feed. Because every store assigns the
// same global sequence numbers, the union of their alert sets — merged
// by sequence — must be byte-identical to a single-process run.
func TestStoreShardedByteIdentity(t *testing.T) {
	events := churnEvents(t)
	wantAlerts, _, _ := referenceRun(t, events)

	const shards = 3
	var merged []watch.Alert
	var skippedTotal uint64
	for k := 0; k < shards; k++ {
		eng, sem := newPair(2 + k)
		st, _, err := Open(eng, sem, Options{
			Dir:           filepath.Join(t.TempDir(), "shard"),
			Owner:         hashOwner(k, shards),
			FsyncInterval: noSync,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := st.Sink()
		for _, ev := range events {
			sink(ev)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		skippedTotal += st.Status().Skipped
		merged = append(merged, eng.Alerts()...)
		eng.Close()
		sem.Close()
	}
	// Prefix ownership is disjoint, so sequence numbers never collide
	// across shards and a stable sort by Seq is the exact global order.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantAlerts) {
		t.Fatalf("sharded alert union differs from single-process run (%d vs %d bytes)", len(got), len(wantAlerts))
	}
	if want := uint64((shards - 1) * len(events)); skippedTotal != want {
		t.Fatalf("shards skipped %d events in total, want %d", skippedTotal, want)
	}
}

// TestStoreSkippedSurvivesCrash: the events a shard does not own are
// never journaled, so a crash must not lose their count. One shard of a
// 2-shard split takes 300 events, checkpoints after 100 and dies with
// the rest of its tail synced; reopened, it reports the skip count it
// reported before the crash, which is the watermark less what its
// engine holds.
func TestStoreSkippedSurvivesCrash(t *testing.T) {
	events := churnEvents(t)[:300]
	const snapAt = 100
	dir := t.TempDir()
	opts := Options{Dir: dir, Owner: hashOwner(0, 2), FsyncInterval: noSync}

	eng1, sem1 := newPair(2)
	st1, _, err := Open(eng1, sem1, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := st1.Sink()
	for i, ev := range events {
		if i == snapAt {
			if err := st1.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		sink(ev)
	}
	if err := st1.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	before := st1.Status()
	gaugeBefore := collected(st1.Collect)["durable_skipped_events"]
	st1.crash()
	eng1.Close()
	sem1.Close()
	if before.Skipped == 0 || before.Skipped == uint64(len(events)) || gaugeBefore != float64(before.Skipped) {
		t.Fatalf("before the crash: skipped %d of %d events, gauge %v", before.Skipped, len(events), gaugeBefore)
	}

	eng2, sem2 := newPair(3)
	defer eng2.Close()
	defer sem2.Close()
	st2, rec, err := Open(eng2, sem2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.CheckpointSeq != snapAt || rec.Seq != before.Seq {
		t.Fatalf("recovered %+v, want checkpoint %d and watermark %d", rec, snapAt, before.Seq)
	}
	after := st2.Status()
	if after.Skipped != before.Skipped {
		t.Fatalf("skipped %d after recovery, %d before the crash", after.Skipped, before.Skipped)
	}
	if got := collected(st2.Collect)["durable_skipped_events"]; got != gaugeBefore {
		t.Fatalf("durable_skipped_events %v after recovery, %v before the crash", got, gaugeBefore)
	}
	if ingested := eng2.Stats().Ingested; after.Skipped != after.Seq-ingested {
		t.Fatalf("skipped %d, but the watermark %d less the %d events ingested is %d",
			after.Skipped, after.Seq, ingested, after.Seq-ingested)
	}
}

// TestStoreSnapshotRetention pins the garbage-collection behavior:
// checkpoints prune to two and fully-covered WAL segments are
// deleted.
func TestStoreSnapshotRetention(t *testing.T) {
	events := churnEvents(t)
	eng, sem := newPair(2)
	defer eng.Close()
	defer sem.Close()
	dir := t.TempDir()
	st, _, err := Open(eng, sem, Options{
		Dir:           dir,
		SegmentBytes:  4096,
		FsyncInterval: noSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := st.Sink()
	chunk := len(events) / 4
	for round := 0; round < 3; round++ {
		for _, ev := range events[round*chunk : (round+1)*chunk] {
			sink(ev)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := snapshotPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(snaps))
	}
	status := st.Status()
	if status.SnapshotSeq != uint64(3*chunk) {
		t.Fatalf("snapshot seq %d, want %d", status.SnapshotSeq, 3*chunk)
	}
	// Everything is checkpointed, so only the active segment survives.
	segs, err := st.wal.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("WAL kept %d segments after full checkpoint, want 1", len(segs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCollectReadsItsOwnState pins what the store's Collect
// reports, its WAL's gauges included, against the watermarks it keeps:
// with the group commit held off, the appended and the durable sequence
// differ until a checkpoint syncs the log.
func TestStoreCollectReadsItsOwnState(t *testing.T) {
	events := churnEvents(t)[:50]
	eng, sem := newPair(2)
	defer eng.Close()
	defer sem.Close()
	st, _, err := Open(eng, sem, Options{Dir: t.TempDir(), FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sink := st.Sink()
	for _, ev := range events {
		sink(ev)
	}
	check := func(when string, want map[string]float64) {
		t.Helper()
		got := collected(st.Collect)
		want["wal_bytes"] = float64(st.Status().WALBytes)
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: %s = %v, want %v", when, name, got[name], v)
			}
		}
		if len(got) != 8 {
			t.Errorf("%s: %d series, want 8: %v", when, len(got), got)
		}
	}
	check("before a checkpoint", map[string]float64{
		"durable_seq": 50, "durable_skipped_events": 0, "snapshot_seq": 0, "snapshot_age_seconds": -1,
		"wal_segments": 1, "wal_last_seq": 50, "wal_durable_seq": 0,
	})
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint", map[string]float64{
		"durable_seq": 50, "durable_skipped_events": 0, "snapshot_seq": 50,
		"wal_segments": 1, "wal_last_seq": 50, "wal_durable_seq": 50,
	})
	if age := collected(st.Collect)["snapshot_age_seconds"]; age < 0 {
		t.Errorf("snapshot_age_seconds %v after a checkpoint", age)
	}
}

// TestStoreBackgroundLoops smoke-tests the automatic snapshot loop and
// the WAL group-commit together under a live feed.
func TestStoreBackgroundLoops(t *testing.T) {
	events := churnEvents(t)
	eng, sem := newPair(2)
	defer eng.Close()
	defer sem.Close()
	st, _, err := Open(eng, sem, Options{
		Dir:              t.TempDir(),
		FsyncInterval:    2 * time.Millisecond,
		SnapshotInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := st.Sink()
	for _, ev := range events {
		sink(ev)
		time.Sleep(10 * time.Microsecond)
		if st.Status().SnapshotSeq > 0 {
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Status().SnapshotSeq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background snapshot loop never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Status().Err != "" {
		t.Fatalf("store error after background run: %s", st.Status().Err)
	}
}

// cycleEvents repeats the churn feed up to n events (sequence numbers
// make every repeat a distinct event).
func cycleEvents(t testing.TB, n int) []feed.Event {
	t.Helper()
	base := churnEvents(t)
	out := make([]feed.Event, 0, n)
	for len(out) < n {
		out = append(out, base[:min(len(base), n-len(out))]...)
	}
	return out
}

// TestStoreExactCutUnderConcurrentIngest is the checkpoint-outside-the-
// lock proof. One goroutine ingests 50K events, a second checkpoints in
// a loop, a third reads Status, and the store is killed at a random
// point. Two claims:
//
//   - every checkpoint file written while ingest was running covers
//     exactly its Seq: restored alone into a fresh engine pair it equals
//     a control fed events 1..Seq — nothing past the fence leaked in
//     through the window slices the fence copy shares with the live
//     engine;
//   - the recovered store (newest checkpoint + WAL tail) equals a
//     control fed events 1..recovered-seq.
//
// Equality is byte equality of the encoded state. Run under -race: the
// encoder reads event slices the engine still holds.
func TestStoreExactCutUnderConcurrentIngest(t *testing.T) {
	const total = 50_000
	events := cycleEvents(t, total)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	killAfter := 5_000 + rng.Intn(total-10_000)
	t.Logf("kill after %d events", killAfter)

	dir := t.TempDir()
	opts := Options{
		Dir: dir, FsyncInterval: time.Millisecond,
		SegmentBytes: 256 << 10, // rotations and truncations inside the run
	}
	eng, sem := newPair(3)
	st, _, err := Open(eng, sem, opts)
	if err != nil {
		t.Fatal(err)
	}
	st.keep = 1 << 20 // keep every checkpoint for the audit below

	var wg sync.WaitGroup
	var ingested, snaps atomic.Int64
	killed := make(chan struct{})
	wg.Add(3)
	go func() { // feed: stops at the first refusal, which is the kill
		defer wg.Done()
		for i, ev := range events {
			if st.Ingest(ev) != nil {
				return
			}
			ingested.Add(1)
			if i%1024 == 0 {
				time.Sleep(100 * time.Microsecond) // let checkpoints interleave on a busy box
			}
		}
	}()
	go func() { // a checkpoint per thousand events or so, always mid-ingest
		defer wg.Done()
		for at := int64(0); st.Snapshot() == nil; at = ingested.Load() {
			snaps.Add(1)
			for ingested.Load() < at+1000 {
				select {
				case <-killed:
					return
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}()
	go func() { // a reader of the watermarks
		defer wg.Done()
		var last Status
		for {
			s := st.Status()
			if s.Seq < last.Seq || s.SnapshotSeq < last.SnapshotSeq || s.SnapshotSeq > s.Seq {
				t.Errorf("watermarks went backwards or crossed: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-killed:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	// The kill lands at the random point, or later if fewer than two
	// checkpoints have been written by then (never past the feed's end).
	for n := ingested.Load(); n < total && (n < int64(killAfter) || snaps.Load() < 2); n = ingested.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	st.crash()
	close(killed)
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatalf("store error during the run: %v", err)
	}
	eng.Close()
	sem.Close()

	// One control pair, advanced to each sequence under audit in turn.
	ctl, ctlSem := newPair(2)
	defer ctl.Close()
	defer ctlSem.Close()
	fed := 0
	controlAt := func(seq uint64) []byte {
		for ; fed < int(seq); fed++ {
			ctl.Ingest(events[fed])
		}
		return stateBytes(t, ctl, ctlSem)
	}

	paths, err := snapshotPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checkpoint landed while ingest ran; nothing to audit")
	}
	t.Logf("%d checkpoints landed during the run", len(paths))
	// Audit a spread of at most eight files; each costs a full restore.
	step := max(1, len(paths)/8)
	for i := 0; i < len(paths); i += step {
		cp, err := readSnapshot(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := snapName(cp.Seq); filepath.Base(paths[i]) != want {
			t.Fatalf("%s holds seq %d", paths[i], cp.Seq)
		}
		re, reSem := newPair(4)
		if err := re.RestoreState(cp.Watch); err != nil {
			t.Fatal(err)
		}
		if err := reSem.RestoreState(cp.Semantics); err != nil {
			t.Fatal(err)
		}
		got := stateBytes(t, re, reSem)
		re.Close()
		reSem.Close()
		if !bytes.Equal(got, controlAt(cp.Seq)) {
			t.Fatalf("checkpoint %s does not equal a control fed events 1..%d", filepath.Base(paths[i]), cp.Seq)
		}
	}

	eng2, sem2 := newPair(5)
	defer eng2.Close()
	defer sem2.Close()
	st2, rec, err := Open(eng2, sem2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crash()
	if rec.Seq < rec.CheckpointSeq || rec.Seq > uint64(ingested.Load()) {
		t.Fatalf("recovered %+v after %d acknowledged events", rec, ingested.Load())
	}
	if rec.Seq < uint64(fed) {
		t.Fatalf("recovered seq %d is behind an audited checkpoint at %d", rec.Seq, fed)
	}
	if !bytes.Equal(stateBytes(t, eng2, sem2), controlAt(rec.Seq)) {
		t.Fatalf("recovered state (checkpoint %d + %d WAL records) differs from a control fed events 1..%d",
			rec.CheckpointSeq, rec.Replayed, rec.Seq)
	}
}

// TestStoreCloseWaitsForCheckpointInFlight: Close while another
// goroutine is mid-Snapshot must neither deadlock nor lose the final
// state — the last file on disk covers everything ingested.
func TestStoreCloseWaitsForCheckpointInFlight(t *testing.T) {
	events := churnEvents(t)
	eng, sem := newPair(2)
	defer eng.Close()
	defer sem.Close()
	dir := t.TempDir()
	st, _, err := Open(eng, sem, Options{Dir: dir, FsyncInterval: noSync, SnapshotInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for st.Snapshot() == nil {
		}
	}()
	for _, ev := range events {
		if err := st.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	cp, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != uint64(len(events)) || st.Status().SnapshotSeq != cp.Seq {
		t.Fatalf("final checkpoint at %d (status %d), want %d", cp.Seq, st.Status().SnapshotSeq, len(events))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
