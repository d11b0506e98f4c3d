package durable

import (
	"fmt"
	"net/netip"
	"os"
	"sync"
	"time"

	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// Options configures a Store. Dir is required; everything else has a
// default. Instrumentation is not configured: the store counts
// checkpoints on obs.Default and emits its gauges, and its WAL's,
// through Collect.
type Options struct {
	// Dir is the durability directory: WAL segments and checkpoint
	// files live side by side in it.
	Dir string
	// SegmentBytes / FsyncInterval pass through to the WAL.
	SegmentBytes  int64
	FsyncInterval time.Duration
	// SnapshotInterval is the automatic checkpoint cadence (0 disables
	// the background loop; Snapshot can still be called directly, and
	// Close always writes a final checkpoint).
	SnapshotInterval time.Duration
	// Owner, when non-nil, is the sharded daemon's ownership filter:
	// events whose prefix it rejects still consume a global sequence
	// number (so every shard assigns identical sequences) but are
	// neither journaled nor ingested. Invalid prefixes are always owned.
	Owner func(netip.Prefix) bool
	// ResumeSkip declares the feed re-readable: after a restart the
	// source replays from its beginning, and the store skips events
	// until the stream passes the recovery watermark. Leave false for
	// live feeds, which resume mid-stream — their events continue the
	// recovered numbering instead.
	ResumeSkip bool
}

// Recovery reports what Open rebuilt.
type Recovery struct {
	// CheckpointSeq is the restored snapshot's watermark (0 if none).
	CheckpointSeq uint64
	// Replayed counts WAL records re-ingested after the checkpoint.
	Replayed int
	// Seq is the global watermark after recovery: snapshot coverage
	// plus the replayed WAL tail.
	Seq uint64
	// TornBytes were truncated off the final WAL segment (a write the
	// crash interrupted).
	TornBytes int64
}

// Store is the durability front door: it assigns global sequence
// numbers, journals every owned event to the WAL before handing it to
// the watch engine, and checkpoints engine state so recovery is
// restore + replay-the-tail. One Store owns one engine pair.
//
// Feed everything through Ingest (or the Sink adapter) from however
// many goroutines; the store serializes, which is also what keeps the
// WAL order identical to the engine's ingest order.
//
// Two locks, taken in this order. snapMu serialises checkpoints and is
// the only lock held while one is encoded, written, fsynced and renamed.
// mu is the ingest lock: it covers sequencing, the WAL append (a
// buffered write, never an fsync) and the engine hand-off, and a
// checkpoint holds it only for its fence — reading the watermark and
// copying the engines' state at that watermark. No file is written,
// synced, renamed or deleted under mu.
type Store struct {
	opts Options
	eng  *watch.Engine
	sem  *semantics.Engine
	wal  *WAL

	snapMu sync.Mutex
	keep   int // checkpoint files retained: 2, the newest and a fallback against a torn write (a test audits more)

	mu          sync.Mutex
	pos         uint64 // global position of the last event seen from the feed
	recovered   uint64 // recovery watermark: everything <= is already applied
	skipped     uint64 // events consumed but not owned (sharded mode)
	resumeSkips uint64 // events skipped while a re-read feed caught up
	snapSeq     uint64
	snapAt      time.Time
	encBuf      []byte
	err         error
	closed      bool

	stopSnap  chan struct{}
	snapDone  chan struct{}
	snapshots *obs.Counter // process-wide, shared by every store
}

// Open recovers (or initializes) the durability directory and binds it
// to the engines: the newest valid checkpoint is restored into eng and
// sem (both must be fresh — never ingested), then the WAL tail beyond
// it is replayed through eng.Ingest with original sequence numbers.
// sem may be nil; when present it is restored here but fed by the
// watch engine's shard workers (watch.Config.Semantics), not by the
// store, and cut behind the watch engine's Flush.
func Open(eng *watch.Engine, sem *semantics.Engine, opts Options) (*Store, Recovery, error) {
	var rec Recovery
	if opts.Dir == "" {
		return nil, rec, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, err
	}
	cp, err := loadLatestSnapshot(opts.Dir)
	if err != nil {
		return nil, rec, err
	}
	s := &Store{
		opts: opts, eng: eng, sem: sem, keep: 2,
		stopSnap: make(chan struct{}), snapDone: make(chan struct{}),
		snapshots: obs.Default.Counter("durable_snapshots_total", "checkpoints written"),
	}
	if cp != nil {
		if err := eng.RestoreState(cp.Watch); err != nil {
			return nil, rec, err
		}
		if sem != nil {
			if err := sem.RestoreState(cp.Semantics); err != nil {
				return nil, rec, err
			}
		}
		rec.CheckpointSeq = cp.Seq
		s.skipped = cp.Skipped
		s.snapSeq, s.snapAt = cp.Seq, cp.SavedAt
	}
	wal, wrec, err := OpenWAL(opts.Dir, WALOptions{
		SegmentBytes:  opts.SegmentBytes,
		FsyncInterval: opts.FsyncInterval,
	})
	if err != nil {
		return nil, rec, err
	}
	rec.TornBytes = wrec.TornBytes
	s.wal = wal
	if err := wal.Replay(rec.CheckpointSeq+1, func(seq uint64, payload []byte) error {
		ev, err := DecodeEvent(payload)
		if err != nil {
			return err
		}
		if ev.Seq != seq {
			return fmt.Errorf("durable: frame seq %d carries event seq %d", seq, ev.Seq)
		}
		eng.Ingest(ev)
		rec.Replayed++
		return nil
	}); err != nil {
		wal.Close()
		return nil, rec, err
	}
	eng.Flush()
	rec.Seq = max(rec.CheckpointSeq, wrec.LastSeq)
	s.recovered = rec.Seq
	if !opts.ResumeSkip {
		s.pos = rec.Seq
	}
	go s.runSnapshots()
	return s, rec, nil
}

// Collect emits the store's per-instance gauges, and its WAL's, for the
// server that holds the store.
func (s *Store) Collect(emit func(obs.Sample)) {
	s.mu.Lock()
	seq, skipped := s.watermarkLocked(), s.skipped
	snapSeq, snapAt := s.snapSeq, s.snapAt
	s.mu.Unlock()
	gauge := func(name, help string, v float64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeGauge, Value: v})
	}
	gauge("durable_seq", "global event sequence watermark", float64(seq))
	gauge("durable_skipped_events", "events consumed but not owned by this shard", float64(skipped))
	gauge("snapshot_seq", "sequence covered by the newest checkpoint", float64(snapSeq))
	age := -1.0 // no checkpoint yet
	if !snapAt.IsZero() {
		age = time.Since(snapAt).Seconds()
	}
	gauge("snapshot_age_seconds", "seconds since the newest checkpoint was written", age)
	s.wal.collect(emit)
}

// watermarkLocked is the global sequence covered so far. While a
// re-read feed is still catching up (ResumeSkip), the recovery
// watermark stays authoritative.
func (s *Store) watermarkLocked() uint64 { return max(s.pos, s.recovered) }

// Ingest journals one event and forwards it to the watch engine. The
// store assigns the global sequence number; any Seq already on the
// event is overwritten. Events a sharded store does not own consume a
// sequence but go no further.
func (s *Store) Ingest(ev feed.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: ingest into closed store")
	}
	s.pos++
	seq := s.pos
	if s.opts.ResumeSkip && seq <= s.recovered {
		s.resumeSkips++
		return nil
	}
	ev.Seq = seq
	if s.opts.Owner != nil && ev.Prefix.IsValid() && !s.opts.Owner(ev.Prefix.Masked()) {
		s.skipped++
		return nil
	}
	s.encBuf = EncodeEvent(s.encBuf[:0], &ev)
	if err := s.wal.Append(seq, s.encBuf); err != nil {
		s.err = err
		return err
	}
	// Journal first, then apply: holding mu across both keeps the WAL
	// order identical to the engine's ingest order.
	s.eng.Ingest(ev)
	return nil
}

// Sink adapts Ingest to the plain sink shape the feed adapters take
// (feed.Tap, feed.StreamMRT). The first error sticks and is
// reported by Err; later events are still journaled when possible.
func (s *Store) Sink() func(feed.Event) {
	return func(ev feed.Event) {
		if err := s.Ingest(ev); err != nil {
			s.stick(err)
		}
	}
}

// stick records err as the store's sticky error unless one is already
// held.
func (s *Store) stick(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err reports the first ingest error swallowed by Sink (nil when
// healthy).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Snapshot writes a checkpoint now and returns once it is durable.
// Ingest is excluded only while the fence is taken; it runs on while
// the state cut at the fence is encoded and written, and nothing it
// adds can leak into the file — window events are immutable once
// ingested, so the copy the fence took may share their path and
// community slices with the live engine. A crash at any point leaves
// the previous checkpoint and an untruncated WAL: the new file appears
// by rename, and covered segments are deleted only after it has.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("durable: snapshot of closed store")
	}
	cp := s.fenceLocked()
	s.mu.Unlock()
	return s.writeCheckpoint(cp)
}

// fenceLocked cuts both engines' state at the current watermark. It is
// the whole of a checkpoint's claim on the ingest lock.
func (s *Store) fenceLocked() *Checkpoint {
	cp := &Checkpoint{
		Seq:     s.watermarkLocked(),
		Skipped: s.skipped,
		SavedAt: time.Now().UTC(),
		Watch:   s.eng.ExportState(),
	}
	if s.sem != nil {
		cp.Semantics = s.sem.ExportState()
	}
	return cp
}

// writeCheckpoint makes a fenced state durable and retires what it
// covers. snapMu is held, mu is not.
func (s *Store) writeCheckpoint(cp *Checkpoint) error {
	// The covered WAL tail must be durable before the checkpoint claims
	// coverage, that is before the rename inside writeSnapshot.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if _, err := writeSnapshot(s.opts.Dir, cp); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapSeq, s.snapAt = cp.Seq, cp.SavedAt
	s.mu.Unlock()
	s.snapshots.Inc()
	if err := s.wal.TruncateBefore(cp.Seq + 1); err != nil {
		return err
	}
	return pruneSnapshots(s.opts.Dir, s.keep)
}

// runSnapshots is the background checkpoint loop.
func (s *Store) runSnapshots() {
	defer close(s.snapDone)
	if s.opts.SnapshotInterval <= 0 {
		<-s.stopSnap
		return
	}
	tick := time.NewTicker(s.opts.SnapshotInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-tick.C:
			s.checkpointIfNew()
		}
	}
}

// checkpointIfNew is one tick of the background loop: a checkpoint
// unless the store is closed or nothing has arrived since the last one.
func (s *Store) checkpointIfNew() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	if s.closed || s.watermarkLocked() <= s.snapSeq {
		s.mu.Unlock()
		return
	}
	cp := s.fenceLocked()
	s.mu.Unlock()
	if err := s.writeCheckpoint(cp); err != nil {
		s.stick(err)
	}
}

// Status is the store's operational snapshot, rendered into /stats.
type Status struct {
	// Seq is the global sequence watermark.
	Seq uint64 `json:"seq"`
	// Recovered is the watermark recovery rebuilt at startup.
	Recovered uint64 `json:"recovered"`
	// Skipped counts events consumed but not owned (sharded mode).
	Skipped uint64 `json:"skipped,omitempty"`
	// WALBytes / WALDurableSeq describe the live log.
	WALBytes      int64  `json:"wal_bytes"`
	WALDurableSeq uint64 `json:"wal_durable_seq"`
	// SnapshotSeq / SnapshotAt describe the newest checkpoint (zero
	// values when none has been written yet).
	SnapshotSeq uint64    `json:"snapshot_seq"`
	SnapshotAt  time.Time `json:"snapshot_at,omitempty"`
	// Err is the first sticky ingest/snapshot error, if any.
	Err string `json:"error,omitempty"`
}

// Status reports the store's current watermarks. Safe concurrently
// with ingest.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Seq:           s.watermarkLocked(),
		Recovered:     s.recovered,
		Skipped:       s.skipped,
		WALBytes:      s.wal.SizeBytes(),
		WALDurableSeq: s.wal.DurableSeq(),
		SnapshotSeq:   s.snapSeq,
		SnapshotAt:    s.snapAt,
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	return st
}

// Close waits for a checkpoint in flight, refuses further ingest, writes
// the final checkpoint and closes the WAL. The engines are left open —
// they belong to the caller.
func (s *Store) Close() error {
	s.snapMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.snapMu.Unlock()
		return nil
	}
	s.closed = true
	cp := s.fenceLocked()
	s.mu.Unlock()
	err := s.writeCheckpoint(cp)
	s.snapMu.Unlock()
	close(s.stopSnap)
	<-s.snapDone
	if werr := s.wal.Close(); err == nil {
		err = werr
	}
	return err
}

// crash simulates a kill -9 for tests: no final checkpoint, no flush —
// only what the group commits already pushed to the kernel survives. A
// checkpoint already past its fence runs to completion, as one whose
// rename beat the signal would have.
func (s *Store) crash() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	close(s.stopSnap)
	<-s.snapDone
	s.wal.crash()
}
