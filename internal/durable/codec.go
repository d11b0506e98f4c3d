// Package durable is wormwatchd's persistence subsystem: a segmented
// write-ahead log of ingested events (length+CRC framed records,
// batched group-commit fsync, segment rotation, torn-tail truncation
// on recovery) plus periodic snapshot/restore of the watch and
// semantics engine state. A daemon killed mid-feed restarts into
// restore-from-snapshot followed by replay of the WAL tail, with zero
// loss of durable alerts.
//
// The layering mirrors a classic log-structured store:
//
//   - codec.go    one feed.Event — the record every feed decodes into
//     and every engine consumes — <-> one compact binary record, and
//     the field vocabulary checkpoints are written in
//   - wal.go      records -> CRC-framed frames -> rotating segments
//   - snapshot.go engine state -> atomic checkpoint files, same codec
//   - store.go    the Store: sequencing, ownership filtering for the
//     sharded daemon, recovery, snapshot scheduling, retention
//
// Determinism is inherited from the engines: events are replayed with
// their original global sequence numbers, the watch engine trusts
// pre-assigned sequence numbers, and logical timestamps are a pure
// function of the sequence — so a recovered engine is byte-identical
// to one that never crashed (TestStoreCrashRecovery).
package durable

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// Codec flag bits.
const (
	flagWithdraw = 1 << 0
	flagV6       = 1 << 1
	flagNoPrefix = 1 << 2
)

// maxRecord bounds one encoded event; anything larger in a frame
// header means corruption, not data.
const maxRecord = 1 << 20

// EncodeEvent appends the compact binary form of ev to buf and returns
// the extended slice. The encoding is self-contained: DecodeEvent
// rebuilds the event exactly (times carry UTC wall-clock nanoseconds;
// the zero time round-trips as zero, so replay re-synthesizes logical
// clocks identically).
func EncodeEvent(buf []byte, ev *feed.Event) []byte {
	buf = binary.AppendUvarint(buf, ev.Seq)
	buf = appendTime(buf, ev.Time)
	flags := prefixFlags(ev.Prefix)
	if ev.Withdraw {
		flags |= flagWithdraw
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(ev.Source)))
	buf = append(buf, ev.Source...)
	buf = binary.AppendUvarint(buf, uint64(ev.PeerAS))
	buf = appendPrefix(buf, ev.Prefix)
	buf = binary.AppendUvarint(buf, uint64(len(ev.ASPath)))
	for _, a := range ev.ASPath {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ev.Communities)))
	for _, c := range ev.Communities {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// appendTime encodes t as varint UTC nanoseconds, the zero time as 0.
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(buf, 0)
	}
	return binary.AppendVarint(buf, t.UnixNano())
}

// prefixFlags is the flag byte that tells a decoder how to read what
// appendPrefix wrote for p: nothing, 4+1 bytes, or 16+1.
func prefixFlags(p netip.Prefix) byte {
	switch {
	case !p.IsValid():
		return flagNoPrefix
	case !p.Addr().Is4():
		return flagV6
	}
	return 0
}

// appendPrefix encodes a valid prefix as address bytes + length byte,
// and an invalid one as nothing.
func appendPrefix(buf []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return buf
	}
	if addr := p.Addr(); addr.Is4() {
		a4 := addr.As4()
		buf = append(buf, a4[:]...)
	} else {
		a16 := addr.As16()
		buf = append(buf, a16[:]...)
	}
	return append(buf, byte(p.Bits()))
}

// DecodeEvent parses one encoded event. It never panics and never sizes
// an allocation from a length the input merely claims: any truncation or
// implausible length yields an error, which is what makes it safe as the
// WAL recovery, checkpoint restore and fuzzing surface.
func DecodeEvent(data []byte) (feed.Event, error) { return decodeEvent(data, "", nil) }

// decodeEvent is DecodeEvent that hands back source itself, not a new
// string, when the record's source equals it: a replay passes the
// previous record's, so a log of one feed allocates its source once.
// With sc non-nil the path and community set are appended to sc's
// buffers instead of allocated, and last only until the caller resets
// them.
func decodeEvent(data []byte, source string, sc *scratch) (feed.Event, error) {
	if sc == nil {
		sc = new(scratch) // stays on the stack: only its buffers escape, as the event's slices
	}
	r := reader{data: data}
	ev := feed.Event{Seq: r.uvarint(), Time: r.time()}
	flags := r.byte()
	if b := r.bytes(r.count(1)); string(b) == source {
		ev.Source = source
	} else {
		ev.Source = string(b)
	}
	ev.PeerAS = uint32(r.uvarint())
	ev.Prefix = r.prefix(flags)
	if n := r.count(1); n > 0 {
		from := len(sc.asns)
		sc.asns = slices.Grow(sc.asns, n)
		for i := 0; i < n && !r.failed; i++ {
			sc.asns = append(sc.asns, uint32(r.uvarint()))
		}
		ev.ASPath = sc.asns[from:len(sc.asns):len(sc.asns)]
	}
	if n := r.count(4); n > 0 {
		from := len(sc.comms)
		sc.comms = slices.Grow(sc.comms, n)
		for i := 0; i < n; i++ {
			sc.comms = append(sc.comms, bgp.Community(binary.BigEndian.Uint32(r.bytes(4))))
		}
		ev.Communities = sc.comms[from:len(sc.comms):len(sc.comms)]
	}
	ev.Withdraw = flags&flagWithdraw != 0
	if r.failed {
		return ev, fmt.Errorf("durable: truncated or malformed event record (%d bytes)", len(data))
	}
	if r.pos != len(data) {
		return ev, fmt.Errorf("durable: %d trailing bytes after event record", len(data)-r.pos)
	}
	return ev, nil
}

// scratch holds the paths and community sets of the events decoded
// into it, so a run of records that the caller copies out of costs its
// allocations once, not per record.
type scratch struct {
	asns  []uint32
	comms bgp.CommunitySet
}

// reader is a bounds-checked cursor: reads past the end and values no
// input of this size could carry flip failed instead of panicking, so
// decode error handling lives in one place.
type reader struct {
	data   []byte
	pos    int
	failed bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) byte() byte {
	if r.pos >= len(r.data) {
		r.failed = true
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

var empty [16]byte

func (r *reader) bytes(n int) []byte {
	if r.pos+n > len(r.data) {
		r.failed = true
		return empty[:min(n, len(empty))]
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// count reads an element count (or a byte length, with size 1) and
// fails unless that many elements of at least size bytes each could
// still follow, so no caller allocates for more than the input holds.
func (r *reader) count(size int) int {
	v := r.uvarint()
	if v > uint64(len(r.data)-r.pos)/uint64(size) {
		r.failed = true
		return 0
	}
	return int(v)
}

func (r *reader) str() string { return string(r.bytes(r.count(1))) }

// time reads what appendTime wrote.
func (r *reader) time() time.Time {
	if nanos := r.varint(); nanos != 0 {
		return time.Unix(0, nanos).UTC()
	}
	return time.Time{}
}

// prefix reads what appendPrefix wrote, given the flag byte that went
// with it. Address bytes and a length that do not make a prefix fail
// the read.
func (r *reader) prefix(flags byte) netip.Prefix {
	if flags&flagNoPrefix != 0 {
		return netip.Prefix{}
	}
	var addr netip.Addr
	if flags&flagV6 != 0 {
		addr = netip.AddrFrom16([16]byte(r.bytes(16)))
	} else {
		addr = netip.AddrFrom4([4]byte(r.bytes(4)))
	}
	p := netip.PrefixFrom(addr, int(r.byte()))
	if !p.IsValid() {
		r.failed = true
	}
	return p
}
