package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// Checkpoint files: magic "WWSNAP02" (8 bytes) + body + CRC32-IEEE of
// the body (u32 BE), streamed to a temp file and renamed into place so
// a crash mid-write leaves the previous checkpoint intact. File names
// carry the covered sequence (snap-%020d.ckpt) so recovery picks the
// newest without parsing, and WAL truncation knows what a checkpoint
// covers.
//
// The body is the codec.go vocabulary — uvarint integers, varint UTC
// nanoseconds for times (0 = the zero time), length-prefixed strings,
// prefixes as flag byte + address + length — read back through the same
// bounds-checked reader as WAL records:
//
//	header     seq, skipped*, saved-at, sections (bit 0 watch, bit 1 semantics)
//	watch      seq, ingested*, processed*, 0, alerts raised*, alerts truncated
//	           (the fourth slot counted events shed by a lossy ingest path
//	           the engine no longer has; written 0, skipped on read)
//	           n x window: prefix, total, n x (length, EncodeEvent record)
//	           n x alert:  seq, time, detector, severity, prefix, peer AS,
//	                       origin AS, community, source, message
//	           n x (detector, alerts raised), sorted by detector
//	semantics  seq, seq, seq, 0 (four slots from when the dictionary engine
//	           queued and shed on its own and counted ingested, processed
//	           and dropped apart; the reader takes the first)
//	           n x evidence: community (u32 BE), count, on-path, off-path,
//	                       at-origin, host-route, prepended, max travel (varint),
//	                       first seq, last seq, first seen, last seen,
//	                       n x peer AS, n x prefix
//
// * Derived, written and not read back: ingested and processed are the
// windows' totals summed, skipped is seq less that sum (0 if the sum is
// larger, as a resharded checkpoint's may be), alerts raised is the
// per-detector totals summed.

const (
	snapMagic = "WWSNAP02"
	// snapMagicJSON headed the JSON checkpoints written before the body
	// moved to the binary codec. Nothing reads them any more; the magic
	// is kept only so the refusal can say what the file is.
	snapMagicJSON = "WWSNAP01"
)

const (
	sectionWatch     = 1 << 0
	sectionSemantics = 1 << 1
)

// errRetiredFormat marks a checkpoint this binary cannot read but must
// not walk past: the WAL behind it has been truncated, so falling back
// to an older checkpoint (or none) would silently lose what it covers.
var errRetiredFormat = errors.New("retired checkpoint format")

// Checkpoint is the durable snapshot payload: both engines' exported
// state plus the store's global sequence watermark.
type Checkpoint struct {
	// Seq is the global event sequence covered: every event with seq <=
	// Seq is reflected in the states below, so recovery replays the WAL
	// strictly after it.
	Seq uint64
	// SavedAt is the wall-clock write time (snapshot_age_seconds).
	SavedAt   time.Time
	Watch     *watch.State
	Semantics *semantics.State
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.ckpt", seq) }

// crcWriter folds everything written through it into a running CRC, so
// the checkpoint body is checksummed as it streams to disk.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crcTable, p)
	return c.w.Write(p)
}

// writeSnapshot persists cp atomically into dir and returns the path.
func writeSnapshot(dir string, cp *Checkpoint) (string, error) {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	fail := func(err error) (string, error) {
		tmp.Close()
		os.Remove(tmpName)
		return "", err
	}
	if _, err := tmp.WriteString(snapMagic); err != nil {
		return fail(err)
	}
	body := &crcWriter{w: tmp}
	if err := encodeCheckpoint(body, cp); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(binary.BigEndian.AppendUint32(nil, body.sum)); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	final := filepath.Join(dir, snapName(cp.Seq))
	if err := os.Rename(tmpName, final); err != nil {
		return fail(err)
	}
	// fsync the directory so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return final, nil
}

// readSnapshot loads and validates one checkpoint file.
func readSnapshot(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(raw) < len(snapMagic)+4 {
		return nil, fmt.Errorf("durable: snapshot %s truncated (%d bytes)", name, len(raw))
	}
	switch string(raw[:len(snapMagic)]) {
	case snapMagic:
	case snapMagicJSON:
		return nil, fmt.Errorf("durable: snapshot %s is a %s (JSON) checkpoint and this binary reads only %s: %w; only the release that wrote it can read that state (RUNBOOK.md, Recovery)",
			name, snapMagicJSON, snapMagic, errRetiredFormat)
	default:
		return nil, fmt.Errorf("durable: snapshot %s bad magic", name)
	}
	body := raw[len(snapMagic) : len(raw)-4]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(raw[len(raw)-4:]) {
		return nil, fmt.Errorf("durable: snapshot %s checksum mismatch", name)
	}
	cp, err := decodeCheckpoint(body)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", name, err)
	}
	return cp, nil
}

// snapEncoder builds the checkpoint body in 64 KiB chunks: appends go to
// buf, and spill hands a full chunk to w, so a 10K-prefix state streams
// through one reused buffer instead of being assembled whole.
type snapEncoder struct {
	w   io.Writer
	buf []byte
	rec []byte // one EncodeEvent record, before its length is known
	err error
}

func (e *snapEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *snapEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *snapEncoder) time(t time.Time) { e.buf = appendTime(e.buf, t) }

func (e *snapEncoder) prefix(p netip.Prefix) {
	e.buf = append(e.buf, prefixFlags(p))
	e.buf = appendPrefix(e.buf, p)
}

func (e *snapEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *snapEncoder) spill() {
	if len(e.buf) >= 1<<16 {
		e.flush()
	}
}

// encodeCheckpoint streams cp's body to w. The encoding is canonical:
// equal checkpoints yield equal bytes (map-backed fields are emitted in
// sorted order), which is what lets tests compare engine states through
// it.
func encodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	e := &snapEncoder{w: w, buf: make([]byte, 0, 1<<16+4096)}
	var applied uint64 // every applied event sits in one window
	if cp.Watch != nil {
		for i := range cp.Watch.Prefixes {
			applied += cp.Watch.Prefixes[i].Total
		}
	}
	e.uvarint(cp.Seq)
	e.uvarint(cp.Seq - min(cp.Seq, applied)) // skipped
	e.time(cp.SavedAt)
	var sections byte
	if cp.Watch != nil {
		sections |= sectionWatch
	}
	if cp.Semantics != nil {
		sections |= sectionSemantics
	}
	e.buf = append(e.buf, sections)
	if st := cp.Watch; st != nil {
		e.watch(st, applied)
	}
	if st := cp.Semantics; st != nil {
		e.semantics(st)
	}
	e.flush()
	return e.err
}

func (e *snapEncoder) watch(st *watch.State, applied uint64) {
	names := make([]string, 0, len(st.ByDetector))
	var raised uint64
	for name, n := range st.ByDetector {
		names = append(names, name)
		raised += n
	}
	sort.Strings(names)
	for _, v := range []uint64{st.Seq, applied, applied, 0, raised, st.AlertsTruncated} {
		e.uvarint(v)
	}
	e.uvarint(uint64(len(st.Prefixes)))
	for i := range st.Prefixes {
		w := &st.Prefixes[i]
		e.prefix(w.Prefix)
		e.uvarint(w.Total)
		e.uvarint(uint64(w.Len()))
		for j := 0; j < w.Len(); j++ {
			ev := w.At(j).FeedEvent(w.Prefix)
			e.rec = EncodeEvent(e.rec[:0], &ev)
			e.uvarint(uint64(len(e.rec)))
			e.buf = append(e.buf, e.rec...)
		}
		e.spill()
	}
	e.uvarint(uint64(len(st.Alerts)))
	for i := range st.Alerts {
		a := &st.Alerts[i]
		e.uvarint(a.Seq)
		e.time(a.Time)
		e.str(a.Detector)
		e.uvarint(uint64(a.Severity))
		e.prefix(a.Prefix)
		e.uvarint(uint64(a.PeerAS))
		e.uvarint(uint64(a.Origin))
		e.str(a.Community)
		e.str(a.Source)
		e.str(a.Message)
		e.spill()
	}
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		e.uvarint(st.ByDetector[name])
	}
}

func (e *snapEncoder) semantics(st *semantics.State) {
	for _, v := range []uint64{st.Seq, st.Seq, st.Seq, 0} {
		e.uvarint(v)
	}
	e.uvarint(uint64(len(st.Communities)))
	for i := range st.Communities {
		es := &st.Communities[i]
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(es.Community))
		for _, v := range []uint64{es.Count, es.OnPath, es.OffPath, es.AtOrigin, es.HostRoute, es.Prepended} {
			e.uvarint(v)
		}
		e.buf = binary.AppendVarint(e.buf, int64(es.MaxTravel))
		e.uvarint(es.FirstSeq)
		e.uvarint(es.LastSeq)
		e.time(es.FirstSeen)
		e.time(es.LastSeen)
		e.uvarint(uint64(len(es.Peers)))
		for _, p := range es.Peers {
			e.uvarint(uint64(p))
		}
		e.uvarint(uint64(len(es.Prefixes)))
		for _, p := range es.Prefixes {
			e.prefix(p)
		}
		e.spill()
	}
}

// Smallest encodings of the repeated elements: a declared count is
// checked against the bytes left before anything is allocated for it.
const (
	minWindowBytes   = 3  // prefix flags, total, event count
	minEventBytes    = 9  // length + the eight fixed fields of a prefix-less record
	minAlertBytes    = 10 // one byte per field
	minCounterBytes  = 2  // empty name, count
	minEvidenceBytes = 17 // community + one byte per remaining field
)

// decodeCheckpoint parses a checkpoint body. Like DecodeEvent it never
// panics and never trusts a length: truncation, an implausible count or
// trailing bytes yield an error.
func decodeCheckpoint(body []byte) (*Checkpoint, error) {
	r := &reader{data: body}
	cp := &Checkpoint{Seq: r.uvarint()}
	r.uvarint() // skipped, derived (see the layout above)
	cp.SavedAt = r.time()
	sections := r.byte()
	if sections&sectionWatch != 0 {
		st, err := decodeWatchState(r)
		if err != nil {
			return nil, err
		}
		cp.Watch = st
	}
	if sections&sectionSemantics != 0 && !r.failed {
		cp.Semantics = decodeSemanticsState(r)
	}
	if r.failed {
		return nil, fmt.Errorf("durable: truncated or malformed checkpoint body (%d bytes)", len(body))
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("durable: %d trailing bytes after checkpoint body", len(body)-r.pos)
	}
	return cp, nil
}

func decodeWatchState(r *reader) (*watch.State, error) {
	st := &watch.State{Seq: r.uvarint()}
	for i := 0; i < 4; i++ {
		r.uvarint() // ingested, processed, reserved, alerts raised: see the layout above
	}
	st.AlertsTruncated = r.uvarint()
	if n := r.count(minWindowBytes); n > 0 {
		st.Prefixes = make([]watch.PrefixWindow, 0, n)
		// One window's events and their paths and sets, reused:
		// AppendWindow copies only what its tables lack.
		var events []feed.Event
		var sc scratch
		source := ""
		for i := 0; i < n && !r.failed; i++ {
			p, total := r.prefix(r.byte()), r.uvarint()
			events = events[:0]
			sc = scratch{sc.asns[:0], sc.comms[:0]}
			m := r.count(minEventBytes)
			for j := 0; j < m && !r.failed; j++ {
				rec := r.bytes(r.count(1))
				if r.failed {
					break
				}
				ev, err := decodeEvent(rec, source, &sc)
				if err != nil {
					return nil, fmt.Errorf("window %s event %d: %w", p, j, err)
				}
				source = ev.Source
				events = append(events, ev)
			}
			st.AppendWindow(p, total, events)
		}
	}
	if n := r.count(minAlertBytes); n > 0 {
		st.Alerts = make([]watch.Alert, 0, n)
		for i := 0; i < n && !r.failed; i++ {
			a := watch.Alert{Seq: r.uvarint(), Time: r.time(), Detector: r.str()}
			sev := r.uvarint()
			if sev > uint64(watch.Critical) {
				return nil, fmt.Errorf("durable: alert %d has unknown severity %d", a.Seq, sev)
			}
			a.Severity = watch.Severity(sev)
			a.Prefix = r.prefix(r.byte())
			a.PeerAS, a.Origin = uint32(r.uvarint()), uint32(r.uvarint())
			a.Community, a.Source, a.Message = r.str(), r.str(), r.str()
			st.Alerts = append(st.Alerts, a)
		}
	}
	if n := r.count(minCounterBytes); n > 0 {
		st.ByDetector = make(map[string]uint64, n)
		for i := 0; i < n && !r.failed; i++ {
			name := r.str()
			st.ByDetector[name] = r.uvarint()
		}
	}
	return st, nil
}

func decodeSemanticsState(r *reader) *semantics.State {
	st := &semantics.State{Seq: r.uvarint()}
	for i := 0; i < 3; i++ {
		r.uvarint() // reserved slots, see the layout above
	}
	n := r.count(minEvidenceBytes)
	if n > 0 {
		st.Communities = make([]semantics.EvidenceState, 0, n)
	}
	for i := 0; i < n && !r.failed; i++ {
		es := semantics.EvidenceState{
			Community: bgp.Community(binary.BigEndian.Uint32(r.bytes(4))),
			Count:     r.uvarint(), OnPath: r.uvarint(), OffPath: r.uvarint(),
			AtOrigin: r.uvarint(), HostRoute: r.uvarint(), Prepended: r.uvarint(),
			MaxTravel: int(r.varint()),
			FirstSeq:  r.uvarint(), LastSeq: r.uvarint(),
			FirstSeen: r.time(), LastSeen: r.time(),
		}
		if m := r.count(1); m > 0 {
			es.Peers = make([]uint32, 0, m)
			for j := 0; j < m && !r.failed; j++ {
				es.Peers = append(es.Peers, uint32(r.uvarint()))
			}
		}
		if m := r.count(1); m > 0 {
			es.Prefixes = make([]netip.Prefix, 0, m)
			for j := 0; j < m && !r.failed; j++ {
				es.Prefixes = append(es.Prefixes, r.prefix(r.byte()))
			}
		}
		st.Communities = append(st.Communities, es)
	}
	return st
}

// snapshotPaths lists checkpoint files, oldest first.
func snapshotPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// loadLatestSnapshot returns the newest checkpoint that validates,
// walking backwards past corrupt ones (a torn rename can only affect
// the newest; older files are immutable). Returns nil when none exist.
// A checkpoint in the retired JSON format is not corrupt and is not
// walked past: it is refused by name.
func loadLatestSnapshot(dir string) (*Checkpoint, error) {
	paths, err := snapshotPaths(dir)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(paths) - 1; i >= 0; i-- {
		cp, err := readSnapshot(paths[i])
		if err == nil {
			return cp, nil
		}
		if errors.Is(err, errRetiredFormat) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// pruneSnapshots deletes all but the newest keep checkpoints.
func pruneSnapshots(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	paths, err := snapshotPaths(dir)
	if err != nil {
		return err
	}
	for _, p := range paths[:max(0, len(paths)-keep)] {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}
