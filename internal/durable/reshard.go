package durable

import (
	"fmt"
	"iter"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"bgpworms/internal/netx"
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
// Every prefix has one owner, the invalid one included (Store.Ingest
// asks Owner about every event), so every record is in exactly one
// source WAL and each prefix's window in exactly one source checkpoint.
// A sequence, covered or not, or a window found in two sources means
// one shard's state was passed twice (two replicas of one range, say),
// and is refused with both directories named.
//
// Non-splittable residue: semantics state is keyed by AS, not prefix,
// and is dropped (destinations rebuild it from the replayed tail and
// the live feed). No counter is carried: a destination's ingested and
// processed counts are its windows' totals and its skip count its
// watermark less those, as for any store; its per-detector alert counts
// are tallied from the alerts it takes, and AlertsTruncated restarts at
// 0. The /alerts surface, which is built purely from prefix-keyed
// state, is preserved byte-for-byte.

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
	// Owner maps a masked prefix, the invalid one included, to its new
	// shard index in [0, len(DstDirs)): serve.RangeMap.Owner over the
	// destination count, the function the new fleet's stores filter by.
	Owner func(netip.Prefix) int
	// SegmentBytes is the destination WAL rotation threshold (0 keeps
	// the WAL default).
	SegmentBytes int64
}

// ReshardReport summarizes what Reshard moved.
type ReshardReport struct {
	// Records is the number of records scattered into the new WALs,
	// each to one destination.
	Records int
	// Covered counts source WAL records dropped because their source's
	// checkpoint already reflected them.
	Covered int
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
	if withCp > 0 {
		// A prefix's window is in its one owner's checkpoint, so a window
		// in two sources is a directory passed twice, even one whose WAL
		// holds no record.
		holder := map[netip.Prefix]int{}
		minSeq = cps[0].Seq
		for i, cp := range cps {
			minSeq = min(minSeq, cp.Seq)
			if cp.Watch == nil {
				continue
			}
			for _, w := range cp.Watch.Prefixes {
				if j, ok := holder[w.Prefix]; ok {
					return rep, fmt.Errorf("durable: reshard prefix %s has a window in both %s and %s; pass each shard's directory once", w.Prefix, opts.SrcDirs[j], opts.SrcDirs[i])
				}
				holder[w.Prefix] = i
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
	// scatter appends one uncovered record to its owner's WAL.
	scatter := func(rec walRecord) error {
		ev, err := DecodeEvent(rec.payload)
		if err != nil {
			return fmt.Errorf("durable: reshard record %d: %w", rec.seq, err)
		}
		if ev.Seq != rec.seq {
			return fmt.Errorf("durable: reshard frame %d carries event seq %d", rec.seq, ev.Seq)
		}
		o := opts.Owner(ev.Prefix.Masked())
		if o < 0 || o >= nDst {
			return fmt.Errorf("durable: reshard owner(%s) = %d outside [0,%d)", ev.Prefix, o, nDst)
		}
		if err := dsts[o].Append(rec.seq, rec.payload); err != nil {
			return err
		}
		rep.PerDst[o]++
		rep.Records++
		return nil
	}

	// Streaming k-way merge by sequence across the source WALs. Each
	// source's records arrive in order; a sequence at the head of two
	// sources is refused before the checkpoint filter could hide it.
	heads := make([]walRecord, len(opts.SrcDirs))
	nexts := make([]func() (walRecord, error, bool), len(opts.SrcDirs))
	alive := make([]bool, len(opts.SrcDirs))
	for i, d := range opts.SrcDirs {
		next, stop := iter.Pull2(iterSrcRecords(d))
		defer stop()
		nexts[i] = next
	}
	advance := func(i int) error {
		r, err, ok := nexts[i]()
		heads[i], alive[i] = r, ok
		return err
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
			if !ok {
				continue
			}
			if lead >= 0 && heads[i].seq == heads[lead].seq {
				closeDsts()
				return rep, fmt.Errorf("durable: reshard sequence %d is in both %s and %s; pass each shard's directory once", heads[i].seq, opts.SrcDirs[lead], opts.SrcDirs[i])
			}
			if lead < 0 || heads[i].seq < heads[lead].seq {
				lead = i
			}
		}
		if lead < 0 {
			break
		}
		rec := heads[lead]
		if rec.seq <= lastSeq {
			closeDsts()
			return rep, fmt.Errorf("durable: reshard sequence %d in %s does not follow %d", rec.seq, opts.SrcDirs[lead], lastSeq)
		}
		lastSeq = rec.seq
		// Drop records the source's own checkpoint covers:
		// TruncateBefore keeps whole segments, so the tail can retain
		// covered records that recovery would skip but a re-scatter
		// must not re-apply.
		if cps[lead] != nil && rec.seq <= cps[lead].Seq {
			rep.Covered++
		} else if err := scatter(rec); err != nil {
			closeDsts()
			return rep, err
		}
		if err := advance(lead); err != nil {
			closeDsts()
			return rep, err
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
			for _, cp := range cps {
				if cp.Watch == nil {
					continue
				}
				for _, w := range cp.Watch.Prefixes {
					if opts.Owner(w.Prefix.Masked()) == dst {
						st.Prefixes = append(st.Prefixes, w)
					}
				}
				for _, a := range cp.Watch.Alerts {
					if opts.Owner(a.Prefix.Masked()) == dst {
						st.Alerts = append(st.Alerts, a)
					}
				}
			}
			slices.SortFunc(st.Prefixes, func(a, b watch.PrefixWindow) int { return netx.ComparePrefix(a.Prefix, b.Prefix) })
			sort.SliceStable(st.Alerts, func(i, j int) bool { return st.Alerts[i].Seq < st.Alerts[j].Seq })
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
