package durable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpworms/internal/obs"
)

// noSync keeps the background group-commit loop effectively inert so
// tests control durability explicitly.
const noSync = time.Hour

// LastSeq is the highest appended record sequence.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

func appendN(t testing.TB, w *WAL, seqs []uint64) {
	t.Helper()
	for _, seq := range seqs {
		if err := w.Append(seq, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

func replayAll(t testing.TB, w *WAL, from uint64) []uint64 {
	t.Helper()
	var got []uint64
	if err := w.Replay(from, func(seq uint64, payload []byte) error {
		if want := fmt.Sprintf("payload-%d", seq); string(payload) != want {
			return fmt.Errorf("seq %d payload %q, want %q", seq, payload, want)
		}
		got = append(got, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func seqRange(from, to uint64) []uint64 {
	out := make([]uint64, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

func seqsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWALAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 || rec.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	// Gapped sequence, like a sharded store's WAL.
	seqs := []uint64{1, 2, 5, 6, 10, 11, 12, 100}
	appendN(t, w, seqs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec2, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.LastSeq != 100 || rec2.Records != len(seqs) {
		t.Fatalf("recovered %+v, want last=100 records=%d", rec2, len(seqs))
	}
	if got := replayAll(t, w2, 0); !seqsEqual(got, seqs) {
		t.Fatalf("replayed %v, want %v", got, seqs)
	}
	if got := replayAll(t, w2, 6); !seqsEqual(got, []uint64{6, 10, 11, 12, 100}) {
		t.Fatalf("replay from 6 got %v", got)
	}
	// Appends must continue after the recovered tail.
	if err := w2.Append(50, nil); err == nil {
		t.Fatal("append below recovered last seq succeeded")
	}
	appendN(t, w2, []uint64{101})
	if got := replayAll(t, w2, 100); !seqsEqual(got, []uint64{100, 101}) {
		t.Fatalf("replay after reopen-append got %v", got)
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 256, FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, seqRange(1, 100))
	segs, _ := w.segments()
	if len(segs) < 5 {
		t.Fatalf("expected many segments at 256B rotation, got %d", len(segs))
	}
	if got := replayAll(t, w, 0); !seqsEqual(got, seqRange(1, 100)) {
		t.Fatalf("replay across segments lost records: %d", len(got))
	}
	before := w.SizeBytes()

	// A checkpoint at 60 retires every segment fully below it.
	if err := w.TruncateBefore(61); err != nil {
		t.Fatal(err)
	}
	if after := w.SizeBytes(); after >= before {
		t.Fatalf("truncation did not shrink the log: %d -> %d", before, after)
	}
	got := replayAll(t, w, 61)
	if !seqsEqual(got, seqRange(61, 100)) {
		t.Fatalf("post-truncation replay from 61 got %v", got)
	}
	// Records >= 61 in a partially-covered segment must survive; the
	// replay from 0 may legitimately start earlier than 61 but never
	// after it.
	all := replayAll(t, w, 0)
	if len(all) == 0 || all[0] > 61 {
		t.Fatalf("truncation deleted covered boundary: first remaining %v", all[:min(len(all), 3)])
	}
}

// collected is one Collect call's samples by series name.
func collected(collect func(func(obs.Sample))) map[string]float64 {
	out := map[string]float64{}
	collect(func(s obs.Sample) { out[s.Name] = s.Value })
	return out
}

// TestWALSegmentCountTracksDisk: a scrape reads the segment count from
// memory rather than listing the directory under the append lock, so
// the count must follow the files through rotations, truncations, Close
// and a reopen.
func TestWALSegmentCountTracksDisk(t *testing.T) {
	dir := t.TempDir()
	check := func(w *WAL, when string) {
		t.Helper()
		onDisk, err := w.segments()
		if err != nil {
			t.Fatal(err)
		}
		if got := collected(w.collect)["wal_segments"]; got != float64(len(onDisk)) {
			t.Fatalf("%s: wal_segments %v, %d files on disk", when, got, len(onDisk))
		}
	}
	w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 256, FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	check(w, "fresh")
	appendN(t, w, seqRange(1, 100))
	check(w, "after rotations")
	if err := w.TruncateBefore(61); err != nil {
		t.Fatal(err)
	}
	check(w, "after truncation")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check(w, "after Close")

	w, _, err = OpenWAL(dir, WALOptions{SegmentBytes: 256, FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	check(w, "reopened")
	appendN(t, w, seqRange(101, 150))
	if err := w.TruncateBefore(151); err != nil {
		t.Fatal(err)
	}
	check(w, "after appending and truncating everything sealed")
}

func TestWALTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, seqRange(1, 20))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %d", len(segs))
	}
	// Tear the final record: chop 3 bytes off the file.
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.LastSeq != 19 || rec.TornBytes == 0 {
		t.Fatalf("recovered %+v, want last=19 with torn bytes", rec)
	}
	if got := replayAll(t, w2, 0); !seqsEqual(got, seqRange(1, 19)) {
		t.Fatalf("post-tear replay got %d records", len(got))
	}
	// The torn record is gone from disk too: seq 20 can be re-appended.
	appendN(t, w2, []uint64{20})
	if got := replayAll(t, w2, 0); !seqsEqual(got, seqRange(1, 20)) {
		t.Fatalf("re-append after tear got %v", got)
	}
}

func TestWALCorruptMiddleRecordIsTornTail(t *testing.T) {
	// A CRC mismatch mid-segment truncates from that point: everything
	// before stays, everything after is discarded (it was never
	// acknowledged durable in order).
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, seqRange(1, 10))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the 5th record region (well past header).
	frame := int64(frameHeader + len("payload-1"))
	off := segHeader + 4*frame + frameHeader
	raw[off] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.LastSeq != 4 {
		t.Fatalf("recovered last seq %d, want 4 (corruption at record 5)", rec.LastSeq)
	}
}

func TestWALCrashLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, seqRange(1, 100))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.DurableSeq() != 100 {
		t.Fatalf("durable seq %d after Sync", w.DurableSeq())
	}
	appendN(t, w, seqRange(101, 150)) // buffered, never flushed
	w.crash()

	w2, rec, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.LastSeq != 100 {
		t.Fatalf("crash recovery found seq %d, want exactly the synced 100", rec.LastSeq)
	}
}

func TestWALHeaderCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, seqRange(1, 3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	raw, _ := os.ReadFile(segs[0])
	copy(raw[:8], "NOTAWAL!")
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync}); err == nil {
		t.Fatal("bad segment magic opened cleanly")
	}
}

func TestWALGroupCommitAdvancesDurable(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, seqRange(1, 10))
	deadline := time.Now().Add(5 * time.Second)
	for w.DurableSeq() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("group commit never advanced durable seq (at %d)", w.DurableSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALRejectsOversizeRecord(t *testing.T) {
	w, _, err := OpenWAL(t.TempDir(), WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(1, make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// Frame-header sanity: the on-disk length field really is the payload
// length (guards against accidental format drift).
func TestWALFrameLayout(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello wal")
	if err := w.Append(42, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	raw, _ := os.ReadFile(segs[0])
	if string(raw[:8]) != segMagic {
		t.Fatalf("segment magic %q", raw[:8])
	}
	if first := binary.BigEndian.Uint64(raw[8:16]); first != 42 {
		t.Fatalf("header first seq %d", first)
	}
	if l := binary.BigEndian.Uint32(raw[segHeader:]); int(l) != len(payload) {
		t.Fatalf("frame length %d, want %d", l, len(payload))
	}
	if seq := binary.BigEndian.Uint64(raw[segHeader+8:]); seq != 42 {
		t.Fatalf("frame seq %d", seq)
	}
}

// TestTruncateBeforeProperty is a randomized property test of the
// retention boundary. For random gapped sequence streams (the sharded
// Owner filter's shape) cut into small segments, and random truncation
// points, it asserts the documented contract:
//
//   - a sealed segment is deleted iff its successor's first seq <= seq
//     (the gapped case included: a gap that pushes the successor's
//     first seq past the truncation point keeps the segment alive even
//     when its own last record is below it);
//   - the active segment always survives;
//   - no record >= seq is ever lost (replay still serves them all).
func TestTruncateBeforeProperty(t *testing.T) {
	for round := 0; round < 30; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 7))
		dir := t.TempDir()
		w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 128, FsyncInterval: noSync})
		if err != nil {
			t.Fatal(err)
		}
		// A gapped monotone stream: each record jumps 1..8 seqs ahead.
		var seqs []uint64
		next := uint64(0)
		n := 10 + rng.Intn(60)
		for i := 0; i < n; i++ {
			next += uint64(1 + rng.Intn(8))
			seqs = append(seqs, next)
			payload := make([]byte, 8+rng.Intn(48))
			if err := w.Append(next, payload); err != nil {
				t.Fatalf("round %d: append seq %d: %v", round, next, err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}

		// Segment layout before truncation: names are first seqs.
		paths, err := w.segments()
		if err != nil {
			t.Fatal(err)
		}
		firsts := make([]uint64, len(paths))
		for i, p := range paths {
			if firsts[i], err = parseSegName(filepath.Base(p)); err != nil {
				t.Fatal(err)
			}
		}

		cut := uint64(rng.Intn(int(next) + 10))
		if err := w.TruncateBefore(cut); err != nil {
			t.Fatalf("round %d: TruncateBefore(%d): %v", round, cut, err)
		}
		after, err := w.segments()
		if err != nil {
			t.Fatal(err)
		}
		kept := map[string]bool{}
		for _, p := range after {
			kept[filepath.Base(p)] = true
		}
		for i, p := range paths {
			want := true // the active (last) segment always survives
			if i+1 < len(paths) {
				want = firsts[i+1] > cut // deleted iff successor first <= cut
			}
			if got := kept[filepath.Base(p)]; got != want {
				t.Fatalf("round %d cut %d: segment %s (firsts=%v) kept=%v want=%v",
					round, cut, filepath.Base(p), firsts, got, want)
			}
		}

		// Every record >= cut must still replay, in order.
		var wantTail []uint64
		for _, s := range seqs {
			if s >= cut {
				wantTail = append(wantTail, s)
			}
		}
		var gotTail []uint64
		if err := w.Replay(cut, func(seq uint64, _ []byte) error {
			gotTail = append(gotTail, seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotTail, wantTail) {
			t.Fatalf("round %d cut %d: replay lost records:\ngot  %v\nwant %v", round, cut, gotTail, wantTail)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSyncInterleavings drives the off-lock group commit against
// everything that can close the segment it is fsyncing: rotation (tiny
// segments), Close, and crash. Claims: DurableSeq is monotone, never
// ahead of LastSeq and never on a record still in the append buffer
// while the log is live; after Close everything
// appended replays; after a crash every record DurableSeq ever vouched
// for is on disk — the watermark advanced only to sequences that were
// flushed before an fsync that returned, never to ones appended while
// it ran (those may still be in the user-space buffer crash discards).
func TestWALSyncInterleavings(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		t.Run(end, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 2048, FsyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			const total = 4000
			var appended atomic.Uint64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var prev uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := w.Sync(); err != nil {
							t.Errorf("sync: %v", err)
							return
						}
						d := w.DurableSeq()
						if d < prev {
							t.Errorf("durable seq went back: %d after %d", d, prev)
							return
						}
						if last := w.LastSeq(); d > last {
							t.Errorf("durable seq %d ahead of last appended %d", d, last)
							return
						}
						// Bytes still in the append buffer are the newest
						// record's: it is not on disk, so nothing may vouch
						// for it.
						w.mu.Lock()
						buffered := w.bw != nil && w.bw.Buffered() > 0
						synced, last := w.synced, w.lastSeq
						w.mu.Unlock()
						if buffered && synced >= last {
							t.Errorf("durable seq %d vouches for record %d, still in the append buffer", synced, last)
							return
						}
						prev = d
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := uint64(1); seq <= total; seq++ {
					if w.Append(seq, []byte(fmt.Sprintf("payload-%d", seq))) != nil {
						return // closed under us: the crash arm
					}
					appended.Store(seq)
				}
			}()
			if end == "crash" {
				for appended.Load() < total/2 {
					runtime.Gosched()
				}
				w.crash()
			} else {
				for appended.Load() < total {
					runtime.Gosched()
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			vouched := w.DurableSeq()

			w2, rec, err := OpenWAL(dir, WALOptions{FsyncInterval: noSync})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if rec.LastSeq < vouched {
				t.Fatalf("durable seq vouched for %d, only %d survived", vouched, rec.LastSeq)
			}
			if end == "close" && rec.LastSeq != total {
				t.Fatalf("recovered %d of %d records after Close", rec.LastSeq, total)
			}
			if got := replayAll(t, w2, 1); !seqsEqual(got, seqRange(1, rec.LastSeq)) {
				t.Fatalf("replay after %s is not 1..%d (%d records)", end, rec.LastSeq, len(got))
			}
		})
	}
}
