package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bgpworms/internal/obs"
)

// Segment layout:
//
//	header  magic "WWALSEG1" (8 bytes) + first-record seq (u64 BE)
//	frame   payload length (u32 BE) + CRC32-IEEE over seq||payload
//	        (u32 BE) + record seq (u64 BE) + payload
//
// Record sequence numbers are carried per frame (not derived from the
// segment position) because the sharded daemon skips non-owned events:
// a shard's WAL holds a gapped subsequence of the global feed, and the
// gaps must survive a restart.

const (
	segMagic    = "WWALSEG1"
	segHeader   = 16
	frameHeader = 16
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// WALOptions sizes the log. The zero value is usable. Instrumentation is
// not configured: the log counts appends and times fsyncs on
// obs.Default, and its gauges render through the Store's Collect.
type WALOptions struct {
	// SegmentBytes is the rotation threshold (default 64 MiB): a
	// segment that grows past it is sealed and a new one started.
	// Sealed segments are the truncation unit after a snapshot.
	SegmentBytes int64
	// FsyncInterval is the group-commit cadence (default 50ms): appends
	// buffer in user space and a background syncer flushes+fsyncs the
	// active segment this often. 0 keeps the default; negative disables
	// fsync entirely (the OS still sees every byte on Close).
	FsyncInterval time.Duration
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	return o
}

// WALRecovery reports what OpenWAL found on disk.
type WALRecovery struct {
	// LastSeq is the highest record sequence recovered (0 for an empty
	// log).
	LastSeq uint64
	// Records is the total number of intact records across segments.
	Records int
	// TornBytes counts bytes truncated off the final segment's tail
	// (an interrupted write).
	TornBytes int64
	// Segments is the number of live segment files.
	Segments int
}

// WAL is the segmented write-ahead log. One goroutine may Append at a
// time (the Store serializes); Sync, TruncateBefore and Close are safe
// concurrently with appends and with the background syncer.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segStart uint64 // first record seq in the active segment
	segBytes int64
	sealed   int64 // on-disk bytes across sealed segments
	segs     int   // segment files on disk, kept so a scrape lists no directory
	lastSeq  uint64
	synced   uint64 // highest seq known flushed+fsynced
	dirty    bool
	closed   bool

	stopSync chan struct{}
	syncDone chan struct{}

	// Process-wide, shared by every log.
	fsyncHist *obs.Histogram
	records   *obs.Counter
	bytes     *obs.Counter
}

// OpenWAL opens (or creates) the log in dir, recovering existing
// segments: the final segment's torn tail, if any, is truncated in
// place; corruption anywhere else is an error.
func OpenWAL(dir string, opts WALOptions) (*WAL, WALRecovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, WALRecovery{}, err
	}
	w := &WAL{dir: dir, opts: opts, stopSync: make(chan struct{}), syncDone: make(chan struct{}),
		fsyncHist: obs.Default.Histogram("wal_fsync_seconds",
			"WAL group-commit flush+fsync latency", obs.DurationBuckets),
		records: obs.Default.Counter("wal_records_total", "records appended to the WAL"),
		bytes:   obs.Default.Counter("wal_appended_bytes_total", "bytes appended to the WAL"),
	}
	rec, err := w.recover()
	if err != nil {
		return nil, rec, err
	}
	go w.runSyncer()
	return w, rec, nil
}

// collect emits the log's per-instance gauges; Store.Collect renders
// them for the server holding the store.
func (w *WAL) collect(emit func(obs.Sample)) {
	w.mu.Lock()
	bytes, segs := w.sealed+w.segBytes, w.segs
	last, synced := w.lastSeq, w.synced
	w.mu.Unlock()
	gauge := func(name, help string, v float64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeGauge, Value: v})
	}
	gauge("wal_bytes", "on-disk bytes across all WAL segments", float64(bytes))
	gauge("wal_segments", "live WAL segment files", float64(segs))
	gauge("wal_last_seq", "highest appended record sequence", float64(last))
	gauge("wal_durable_seq", "highest record sequence known fsynced", float64(synced))
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%020d.seg", firstSeq) }

// segments lists segment paths in first-seq order.
func (w *WAL) segments() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(w.dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// recover scans the on-disk segments, truncates a torn tail off the
// last one, and positions the writer.
func (w *WAL) recover() (WALRecovery, error) {
	var rec WALRecovery
	paths, err := w.segments()
	if err != nil {
		return rec, err
	}
	rec.Segments = len(paths)
	w.segs = len(paths)
	for i, p := range paths {
		last := i == len(paths)-1
		info, err := scanSegment(p, 0, nil)
		if err != nil {
			return rec, fmt.Errorf("durable: segment %s: %w", filepath.Base(p), err)
		}
		if info.tornBytes > 0 {
			if !last {
				return rec, fmt.Errorf("durable: segment %s has a torn tail but is not the final segment", filepath.Base(p))
			}
			if err := os.Truncate(p, info.goodBytes); err != nil {
				return rec, err
			}
			rec.TornBytes = info.tornBytes
		}
		rec.Records += info.records
		if info.lastSeq > rec.LastSeq {
			rec.LastSeq = info.lastSeq
		}
		w.sealed += info.goodBytes
	}
	w.lastSeq = rec.LastSeq
	w.synced = rec.LastSeq
	if len(paths) > 0 {
		// Reopen the final segment for appending.
		p := paths[len(paths)-1]
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rec, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return rec, err
		}
		first, err := parseSegName(filepath.Base(p))
		if err != nil {
			f.Close()
			return rec, err
		}
		w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
		w.segStart, w.segBytes = first, st.Size()
		w.sealed -= st.Size()
	}
	return rec, nil
}

func parseSegName(base string) (uint64, error) {
	var seq uint64
	if _, err := fmt.Sscanf(base, "wal-%d.seg", &seq); err != nil {
		return 0, fmt.Errorf("durable: bad segment name %q: %w", base, err)
	}
	return seq, nil
}

// segInfo is one segment scan's result.
type segInfo struct {
	firstSeq  uint64
	lastSeq   uint64
	records   int
	goodBytes int64 // header + intact frames
	tornBytes int64 // trailing bytes past the last intact frame
}

// scanSegment walks a segment's frames, calling fn (when non-nil) for
// every record with seq >= fromSeq. A malformed tail is reported via
// tornBytes rather than an error; only header-level corruption errors.
func scanSegment(path string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (segInfo, error) {
	var info segInfo
	f, err := os.Open(path)
	if err != nil {
		return info, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return info, err
	}
	size := st.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// A header that never finished writing is a torn (empty)
		// segment, not corruption.
		info.tornBytes = size
		return info, nil
	}
	if string(hdr[:8]) != segMagic {
		return info, fmt.Errorf("bad magic %q", hdr[:8])
	}
	info.firstSeq = binary.BigEndian.Uint64(hdr[8:])
	info.goodBytes = segHeader
	var fh [frameHeader]byte
	payload := make([]byte, 0, 4096)
	for info.goodBytes < size {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			break // torn frame header
		}
		length := binary.BigEndian.Uint32(fh[0:4])
		sum := binary.BigEndian.Uint32(fh[4:8])
		seq := binary.BigEndian.Uint64(fh[8:16])
		if length > maxRecord || info.goodBytes+frameHeader+int64(length) > size {
			break // implausible length or runs past EOF: torn
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		crc := crc32.Update(0, crcTable, fh[8:16])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != sum {
			break // torn or bit-rotted tail record
		}
		if fn != nil && seq >= fromSeq {
			if err := fn(seq, payload); err != nil {
				return info, err
			}
		}
		info.records++
		info.lastSeq = seq
		info.goodBytes += frameHeader + int64(length)
	}
	info.tornBytes = size - info.goodBytes
	return info, nil
}

// Append writes one record. seq must exceed every previously appended
// sequence (gaps are fine — the sharded daemon skips non-owned
// events). The write is buffered; durability arrives with the next
// group commit (or an explicit Sync).
func (w *WAL) Append(seq uint64, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("durable: record %d bytes exceeds %d", len(payload), maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: append to closed WAL")
	}
	if seq <= w.lastSeq {
		return fmt.Errorf("durable: append seq %d not after %d", seq, w.lastSeq)
	}
	if w.f == nil || w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(seq); err != nil {
			return err
		}
	}
	var fh [frameHeader]byte
	binary.BigEndian.PutUint32(fh[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(fh[8:16], seq)
	crc := crc32.Update(0, crcTable, fh[8:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(fh[4:8], crc)
	if _, err := w.bw.Write(fh[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.lastSeq = seq
	w.segBytes += frameHeader + int64(len(payload))
	w.dirty = true
	w.records.Inc()
	w.bytes.Add(uint64(frameHeader + len(payload)))
	return nil
}

// rotateLocked seals the active segment (flush+fsync) and starts a new
// one whose first record will be nextSeq.
func (w *WAL) rotateLocked(nextSeq uint64) error {
	if w.f != nil {
		if err := w.flushLocked(true); err != nil {
			return err
		}
		w.sealed += w.segBytes
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f, w.bw = nil, nil
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(nextSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.segs++
	var hdr [segHeader]byte
	copy(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
	w.segStart, w.segBytes = nextSeq, segHeader
	return nil
}

// flushLocked drains the user-space buffer and, when fsync is set, makes
// the active segment durable and advances the durable watermark. It is
// the under-lock commit of the two places that close the file right
// after — rotation and Close; the group commit (Sync) fsyncs outside
// the lock instead.
func (w *WAL) flushLocked(fsync bool) error {
	if w.bw == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if !fsync {
		return nil
	}
	if err := w.fsync(w.f); err != nil {
		return err
	}
	w.synced = w.lastSeq
	w.dirty = false
	return nil
}

// fsync makes f's written bytes durable and observes the latency. A log
// opened with fsync disabled stops at the flush its caller already did.
func (w *WAL) fsync(f *os.File) error {
	if w.opts.FsyncInterval < 0 {
		return nil
	}
	start := time.Now()
	err := f.Sync()
	if err == nil {
		w.fsyncHist.ObserveSince(start)
	}
	return err
}

// Sync is one group commit: everything appended before the call is
// durable when it returns. Only the buffer flush and the capture of
// (file, last sequence) happen under the append lock; the fsync runs
// outside it, so appends — and Store.Ingest behind them — never wait for
// the disk, and the durable watermark then advances to the captured
// sequence only, never to records appended while the fsync was running.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.closed || w.f == nil {
		w.mu.Unlock()
		return nil
	}
	if err := w.flushLocked(false); err != nil {
		w.mu.Unlock()
		return err
	}
	f, seq := w.f, w.lastSeq
	w.dirty = false
	w.mu.Unlock()

	err := w.fsync(f)

	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case err == nil:
		w.synced = max(w.synced, seq)
	case errors.Is(err, os.ErrClosed):
		// The segment was closed under us. A rotation or Close fsynced it
		// first and advanced the watermark itself; a crash did neither,
		// and then nothing may be claimed.
		err = nil
	default:
		w.dirty = true // retry on the next tick
	}
	return err
}

// runSyncer is the group-commit loop.
func (w *WAL) runSyncer() {
	defer close(w.syncDone)
	interval := w.opts.FsyncInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond // flush cadence even when fsync is off
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-tick.C:
			w.mu.Lock()
			dirty := w.dirty
			w.mu.Unlock()
			if dirty {
				_ = w.Sync()
			}
		}
	}
}

// DurableSeq is the highest record sequence known flushed and fsynced.
func (w *WAL) DurableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// SizeBytes is the current on-disk size across segments.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealed + w.segBytes
}

// Replay calls fn for every record with seq >= fromSeq, in order. It
// reads the on-disk state and is meant for recovery, before appends
// start; calling it on a live WAL sees whatever has been flushed.
func (w *WAL) Replay(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	w.mu.Lock()
	if err := w.flushLocked(false); err != nil {
		w.mu.Unlock()
		return err
	}
	paths, err := w.segments()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	for i, p := range paths {
		// Skip whole segments that end before fromSeq: the next
		// segment's name is the first seq after this one.
		if i+1 < len(paths) {
			next, err := parseSegName(filepath.Base(paths[i+1]))
			if err == nil && next > 0 && next-1 < fromSeq {
				continue
			}
		}
		if _, err := scanSegment(p, fromSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBefore deletes sealed segments whose every record is below
// seq — the retention step after a snapshot covers them. The active
// segment is never deleted. A sealed segment is deleted iff its
// successor's first seq is <= seq: the successor's name is the first
// sequence after the segment, so every record inside is strictly below
// it. With gapped sequences (the sharded Owner filter) this is
// conservative — a segment whose last record is below seq survives
// when the gap pushes its successor's first seq past seq — but never
// deletes a record >= seq (TestTruncateBeforeProperty).
//
// Only the listing happens under the append lock (so its last entry is
// the active segment); sealed segments are immutable, and unlinking
// them does not make an Append wait.
func (w *WAL) TruncateBefore(seq uint64) error {
	w.mu.Lock()
	paths, err := w.segments()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	var freed int64
	removed := 0
	defer func() {
		w.mu.Lock()
		w.sealed -= freed
		w.segs -= removed
		w.mu.Unlock()
	}()
	for i, p := range paths {
		if i+1 >= len(paths) {
			break // active segment
		}
		next, err := parseSegName(filepath.Base(paths[i+1]))
		if err != nil {
			return err
		}
		// next >= 1 always: segment names carry their first record seq,
		// and Append rejects seq 0 (a fresh WAL starts at lastSeq 0 and
		// requires seq > lastSeq), so next-1 cannot underflow.
		if next-1 >= seq {
			break
		}
		st, statErr := os.Stat(p)
		if err := os.Remove(p); err != nil {
			return err
		}
		removed++
		if statErr == nil {
			freed += st.Size()
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the active segment, stopping the
// group-commit loop.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.flushLocked(true)
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.mu.Unlock()
	close(w.stopSync)
	<-w.syncDone
	return err
}

// crash simulates a kill -9 for tests: the user-space buffer is
// abandoned (exactly what the kernel never saw) and the file handles
// drop without flush or fsync.
func (w *WAL) crash() {
	w.mu.Lock()
	w.closed = true
	if w.f != nil {
		w.f.Close() // buffered bytes in w.bw are lost, as under SIGKILL
		w.f, w.bw = nil, nil
	}
	w.mu.Unlock()
	close(w.stopSync)
	<-w.syncDone
}
