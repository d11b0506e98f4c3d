package durable

import (
	"bytes"
	"fmt"
	"iter"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bgpworms/internal/watch"
)

// Resharding: scatter N per-shard durability directories into M new
// ones by re-evaluating prefix ownership per record, preserving global
// sequence numbers. The fleet changes shape offline — stop the old
// shards, reshard, boot the new layout — without replaying the feed.
//
// Correctness model. A shard's durable state is (checkpoint, WAL tail):
// the checkpoint covers every owned event with seq <= cp.Seq and the
// WAL holds owned records after (and, because TruncateBefore is
// conservative, possibly some at-or-before) that watermark. State is
// prefix-keyed end to end — watch.State stores per-prefix windows and
// per-alert prefixes — so a new owner map re-partitions it exactly:
//
//   - WAL records with seq <= their source's cp.Seq are dropped (the
//     checkpoint already reflects them; keeping them would double-apply
//     on recovery). Survivors route to Owner(prefix).
//   - Checkpoint windows and alerts route to Owner(prefix) verbatim.
//   - The merged checkpoint's Seq is the minimum source cp.Seq: a
//     prefix from a source with a higher watermark has state beyond
//     that minimum, but its WAL records were dropped up to the same
//     higher watermark, so replay-from-minimum applies each surviving
//     record exactly once per prefix.
//
// Events with an invalid prefix are journaled by every shard
// (Store.Ingest owns them unconditionally), so their records appear in
// every source WAL and their state in every source checkpoint. Records
// are deduplicated by sequence during the merge and scattered to every
// destination; invalid-prefix state is taken only from the source with
// the minimum cp.Seq — states from higher-watermark sources cover
// records that other sources' WALs will replay.
//
// Non-splittable residue: semantics state is keyed by AS, not prefix,
// and is dropped (destinations rebuild it from the replayed tail and
// the live feed); global engine counters (Ingested, AlertsTruncated)
// and the store's Skipped count are per-shard accounting and restart
// from the splittable evidence — retained window totals and alerts. The
// /alerts surface, which is built purely from prefix-keyed state, is
// preserved byte-for-byte.

// ReshardOptions configures one offline reshard run.
type ReshardOptions struct {
	// SrcDirs are the existing per-shard durability directories. Every
	// source must either have a checkpoint (the normal case — Close
	// writes one on graceful shutdown) or none may have one; mixing is
	// refused because a checkpointed source may have truncated WAL
	// records that only its checkpoint reflects.
	SrcDirs []string
	// DstDirs are the new per-shard directories, one per new shard, in
	// shard-index order. Each must be empty or absent.
	DstDirs []string
	// Owner maps a valid masked prefix to its new shard index in
	// [0, len(DstDirs)). Invalid prefixes are handled internally (they
	// go to every destination, mirroring Store.Ingest).
	Owner func(netip.Prefix) int
	// SegmentBytes is the destination WAL rotation threshold (0 keeps
	// the WAL default).
	SegmentBytes int64
}

// ReshardReport summarizes what Reshard moved.
type ReshardReport struct {
	// Records is the number of unique records scattered into the new
	// WALs (an invalid-prefix record written to every destination
	// counts once).
	Records int
	// Covered counts source WAL records dropped because their source's
	// checkpoint already reflected them.
	Covered int
	// Duplicates counts cross-source duplicate sequences collapsed
	// (invalid-prefix records journaled by every shard).
	Duplicates int
	// CheckpointSeq is the destination checkpoints' watermark (0 when
	// no source had a checkpoint and none was written).
	CheckpointSeq uint64
	// PerDst is the per-destination WAL record count.
	PerDst []int
}

// walRecord is one frame surfaced by iterSrcRecords.
type walRecord struct {
	seq     uint64
	payload []byte
}

// iterSrcRecords streams every record in dir's segments in sequence
// order. The payload slice is only valid until the iterator advances —
// scanSegment reuses its buffer — so consumers must finish with a
// record before pulling the next from the same iterator. A torn tail
// on the final segment is tolerated (a crash artifact, exactly what
// recovery would truncate); anywhere else it is corruption.
func iterSrcRecords(dir string) iter.Seq2[walRecord, error] {
	return func(yield func(walRecord, error) bool) {
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			yield(walRecord{}, err)
			return
		}
		sort.Strings(paths)
		for i, p := range paths {
			stop := false
			info, err := scanSegment(p, 0, func(seq uint64, payload []byte) error {
				if !yield(walRecord{seq: seq, payload: payload}, nil) {
					stop = true
					return errStopScan
				}
				return nil
			})
			if stop {
				return
			}
			if err != nil {
				yield(walRecord{}, fmt.Errorf("durable: reshard source %s: %w", filepath.Base(p), err))
				return
			}
			if info.tornBytes > 0 && i != len(paths)-1 {
				yield(walRecord{}, fmt.Errorf("durable: reshard source %s has a torn tail but is not the final segment", filepath.Base(p)))
				return
			}
		}
	}
}

var errStopScan = fmt.Errorf("durable: stop scan")

// dstDirUsable refuses a destination that already holds durability
// state — resharding into a live directory would interleave two
// incompatible sequence histories.
func dstDirUsable(dir string) error {
	for _, pat := range []string{"wal-*.seg", "snap-*.ckpt"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		if len(m) > 0 {
			return fmt.Errorf("durable: reshard destination %s is not empty (%s)", dir, filepath.Base(m[0]))
		}
	}
	return nil
}

// Reshard scatters the source shards' durable state into the
// destination layout. Sources must be stopped (the tool reads their
// directories directly); destinations are created. On success each
// destination directory opens as a normal Store whose merged alert
// surface is byte-identical to the old fleet's.
func Reshard(opts ReshardOptions) (ReshardReport, error) {
	var rep ReshardReport
	if len(opts.SrcDirs) == 0 || len(opts.DstDirs) == 0 {
		return rep, fmt.Errorf("durable: reshard needs at least one source and one destination")
	}
	if opts.Owner == nil {
		return rep, fmt.Errorf("durable: reshard needs an ownership function")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]string{}, opts.SrcDirs...), opts.DstDirs...) {
		abs, err := filepath.Abs(d)
		if err != nil {
			return rep, err
		}
		if seen[abs] {
			return rep, fmt.Errorf("durable: reshard directory %s appears twice", d)
		}
		seen[abs] = true
	}
	for _, d := range opts.DstDirs {
		if err := dstDirUsable(d); err != nil {
			return rep, err
		}
	}

	// Load source checkpoints and decide the merged watermark.
	cps := make([]*Checkpoint, len(opts.SrcDirs))
	withCp, withoutCp := 0, 0
	for i, d := range opts.SrcDirs {
		cp, err := loadLatestSnapshot(d)
		if err != nil {
			return rep, fmt.Errorf("durable: reshard source %s: %w", d, err)
		}
		cps[i] = cp
		if cp != nil {
			withCp++
		} else {
			withoutCp++
		}
	}
	if withCp > 0 && withoutCp > 0 {
		return rep, fmt.Errorf("durable: reshard sources mix checkpointed and checkpoint-less directories; shut the fleet down gracefully (Close writes a final checkpoint) and retry")
	}
	var minSeq uint64
	minSrc := -1
	if withCp > 0 {
		for i, cp := range cps {
			if minSrc < 0 || cp.Seq < minSeq {
				minSeq, minSrc = cp.Seq, i
			}
		}
		rep.CheckpointSeq = minSeq
	}

	// Open the destination WALs.
	nDst := len(opts.DstDirs)
	rep.PerDst = make([]int, nDst)
	dsts := make([]*WAL, nDst)
	closeDsts := func() {
		for _, w := range dsts {
			if w != nil {
				w.Close()
			}
		}
	}
	for i, d := range opts.DstDirs {
		w, _, err := OpenWAL(d, WALOptions{SegmentBytes: opts.SegmentBytes})
		if err != nil {
			closeDsts()
			return rep, err
		}
		dsts[i] = w
	}

	// Streaming k-way merge by sequence across the source WALs. Each
	// source yields in ascending order; equal sequences across sources
	// are the invalid-prefix records every shard journals — verified
	// byte-identical and written once (to every destination).
	heads := make([]walRecord, len(opts.SrcDirs))
	nexts := make([]func() (walRecord, error, bool), len(opts.SrcDirs))
	alive := make([]bool, len(opts.SrcDirs))
	for i, d := range opts.SrcDirs {
		next, stop := iter.Pull2(iterSrcRecords(d))
		defer stop()
		nexts[i] = next
	}
	advance := func(i int) error {
		for {
			r, err, ok := nexts[i]()
			if err != nil {
				return err
			}
			if !ok {
				alive[i] = false
				return nil
			}
			// Drop records the source's own checkpoint covers:
			// TruncateBefore keeps whole segments, so the tail can retain
			// covered records that recovery would skip but a re-scatter
			// must not re-apply.
			if cps[i] != nil && r.seq <= cps[i].Seq {
				rep.Covered++
				continue
			}
			heads[i], alive[i] = r, true
			return nil
		}
	}
	for i := range nexts {
		if err := advance(i); err != nil {
			closeDsts()
			return rep, err
		}
	}
	var lastSeq uint64
	for {
		lead := -1
		for i, ok := range alive {
			if ok && (lead < 0 || heads[i].seq < heads[lead].seq) {
				lead = i
			}
		}
		if lead < 0 {
			break
		}
		rec := heads[lead]
		if rec.seq == lastSeq && rep.Records > 0 {
			closeDsts()
			return rep, fmt.Errorf("durable: reshard sequence %d repeats after being scattered", rec.seq)
		}
		// Collapse duplicates before advancing anything: every head's
		// payload is stable until its own iterator moves.
		dups := []int{lead}
		for i, ok := range alive {
			if ok && i != lead && heads[i].seq == rec.seq {
				if !bytes.Equal(heads[i].payload, rec.payload) {
					closeDsts()
					return rep, fmt.Errorf("durable: reshard sequence %d differs between %s and %s", rec.seq, opts.SrcDirs[lead], opts.SrcDirs[i])
				}
				dups = append(dups, i)
				rep.Duplicates++
			}
		}
		ev, err := DecodeEvent(rec.payload)
		if err != nil {
			closeDsts()
			return rep, fmt.Errorf("durable: reshard record %d: %w", rec.seq, err)
		}
		if ev.Seq != rec.seq {
			closeDsts()
			return rep, fmt.Errorf("durable: reshard frame %d carries event seq %d", rec.seq, ev.Seq)
		}
		targets := []int{}
		if ev.Prefix.IsValid() {
			o := opts.Owner(ev.Prefix.Masked())
			if o < 0 || o >= nDst {
				closeDsts()
				return rep, fmt.Errorf("durable: reshard owner(%s) = %d outside [0,%d)", ev.Prefix, o, nDst)
			}
			targets = append(targets, o)
		} else {
			for i := 0; i < nDst; i++ {
				targets = append(targets, i)
			}
		}
		for _, t := range targets {
			if err := dsts[t].Append(rec.seq, rec.payload); err != nil {
				closeDsts()
				return rep, err
			}
			rep.PerDst[t]++
		}
		rep.Records++
		lastSeq = rec.seq
		for _, i := range dups {
			if err := advance(i); err != nil {
				closeDsts()
				return rep, err
			}
		}
	}
	for i, w := range dsts {
		if err := w.Close(); err != nil {
			return rep, err
		}
		dsts[i] = nil
	}

	// Split the checkpoints. Each destination gets the union of the
	// per-prefix state it now owns, under the minimum source watermark.
	if withCp > 0 {
		savedAt := time.Now().UTC()
		for dst, dir := range opts.DstDirs {
			st := &watch.State{Seq: minSeq, ByDetector: map[string]uint64{}}
			for src, cp := range cps {
				if cp.Watch == nil {
					continue
				}
				for _, w := range cp.Watch.Prefixes {
					if w.Prefix.IsValid() {
						if opts.Owner(w.Prefix.Masked()) == dst {
							st.Prefixes = append(st.Prefixes, w)
						}
					} else if src == minSrc {
						st.Prefixes = append(st.Prefixes, w)
					}
				}
				for _, a := range cp.Watch.Alerts {
					if a.Prefix.IsValid() {
						if opts.Owner(a.Prefix.Masked()) == dst {
							st.Alerts = append(st.Alerts, a)
						}
					} else if src == minSrc {
						st.Alerts = append(st.Alerts, a)
					}
				}
			}
			sort.Slice(st.Prefixes, func(i, j int) bool {
				a, b := st.Prefixes[i].Prefix, st.Prefixes[j].Prefix
				if c := a.Addr().Compare(b.Addr()); c != 0 {
					return c < 0
				}
				return a.Bits() < b.Bits()
			})
			sort.SliceStable(st.Alerts, func(i, j int) bool { return st.Alerts[i].Seq < st.Alerts[j].Seq })
			for _, w := range st.Prefixes {
				st.Ingested += w.Total
			}
			st.Processed = st.Ingested
			st.AlertsRaised = uint64(len(st.Alerts))
			for _, a := range st.Alerts {
				st.ByDetector[a.Detector]++
			}
			if len(st.ByDetector) == 0 {
				st.ByDetector = nil
			}
			cp := &Checkpoint{Seq: minSeq, SavedAt: savedAt, Watch: st}
			if _, err := writeSnapshot(dir, cp); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// ValidateDirs is the pre-flight used by cmd/walreshard: every source
// must exist (a typo must not silently reshard a partial fleet).
func ValidateDirs(srcs []string) error {
	for _, d := range srcs {
		st, err := os.Stat(d)
		if err != nil {
			return fmt.Errorf("durable: reshard source %s: %w", d, err)
		}
		if !st.IsDir() {
			return fmt.Errorf("durable: reshard source %s is not a directory", d)
		}
	}
	return nil
}
