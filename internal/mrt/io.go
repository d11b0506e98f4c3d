package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"bgpworms/internal/bgp"
)

// maxRecordLen bounds a single MRT record body to guard against corrupt
// length fields; real dumps stay far below this.
const maxRecordLen = 1 << 20

// Writer emits MRT records to an underlying stream.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Count returns how many records have been written.
func (w *Writer) Count() int { return w.n }

// Write serializes one record with its MRT common header.
func (w *Writer) Write(rec Record) error {
	body, err := rec.appendBody(w.buf[:0])
	if err != nil {
		return err
	}
	w.buf = body[:0] // keep capacity
	var extra []byte
	typ := rec.RecordType()
	if typ == TypeBGP4MPET {
		us := rec.Time().Nanosecond() / 1000
		extra = binary.BigEndian.AppendUint32(nil, uint32(us))
	}
	hdr := make([]byte, 0, 12+len(extra))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(rec.Time().Unix()))
	hdr = binary.BigEndian.AppendUint16(hdr, typ)
	hdr = binary.BigEndian.AppendUint16(hdr, rec.RecordSubtype())
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)+len(extra)))
	hdr = append(hdr, extra...)
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		return err
	}
	w.n++
	return nil
}

// Reader decodes MRT records from a stream. RIB records resolve their peer
// indexes against the most recently seen PEER_INDEX_TABLE.
type Reader struct {
	r     *bufio.Reader
	peers []PeerEntry
	hdr   [12]byte
	body  []byte
	msg   BGP4MPMessage // NextUpdate's record
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, 1<<16)} }

// PeerTable returns the peers of the last PEER_INDEX_TABLE seen, enabling
// callers to resolve RIBEntry.PeerIndex.
func (r *Reader) PeerTable() []PeerEntry { return r.peers }

// Next returns the next record, or io.EOF at clean end of stream. Every
// record it returns is freshly allocated and may be kept.
func (r *Reader) Next() (Record, error) {
	ts, typ, sub, body, err := r.read()
	if err != nil {
		return nil, err
	}
	return r.decode(ts, typ, sub, body, nil)
}

// NextUpdate is Next for a caller that reads record after record and
// keeps none of them. A BGP4MP message record comes back as the reader's
// own *BGP4MPMessage, and an UPDATE inside it is decoded into u, reusing
// u's slices (bgp.DecodeMessageInto); both are overwritten by the next
// call. Every other record, and every error, is what Next would return.
func (r *Reader) NextUpdate(u *bgp.Update) (Record, error) {
	ts, typ, sub, body, err := r.read()
	if err != nil {
		return nil, err
	}
	return r.decode(ts, typ, sub, body, u)
}

// read reads one record's common header and body. The body aliases the
// reader's buffer until the next read. A stream that ends exactly at a
// record boundary returns io.EOF; one cut anywhere inside a record,
// including right after its header, is an error.
func (r *Reader) read() (ts time.Time, typ, sub uint16, body []byte, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("mrt: truncated header: %w", err)
		}
		return ts, 0, 0, nil, err
	}
	ts = time.Unix(int64(binary.BigEndian.Uint32(r.hdr[0:])), 0).UTC()
	typ = binary.BigEndian.Uint16(r.hdr[4:])
	sub = binary.BigEndian.Uint16(r.hdr[6:])
	length := binary.BigEndian.Uint32(r.hdr[8:])
	if length > maxRecordLen {
		return ts, 0, 0, nil, fmt.Errorf("mrt: record length %d exceeds cap", length)
	}
	if cap(r.body) < int(length) {
		r.body = make([]byte, length)
	}
	body = r.body[:length]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		return ts, 0, 0, nil, fmt.Errorf("mrt: truncated body: %w", err)
	}
	return ts, typ, sub, body, nil
}

// decode turns one record body into a Record; a non-nil u selects
// NextUpdate's reuse.
func (r *Reader) decode(ts time.Time, typ, sub uint16, body []byte, u *bgp.Update) (Record, error) {
	if typ == TypeBGP4MPET {
		if len(body) < 4 {
			return nil, fmt.Errorf("mrt: BGP4MP_ET without microseconds")
		}
		us := binary.BigEndian.Uint32(body)
		ts = ts.Add(time.Duration(us) * time.Microsecond)
		body = body[4:]
		typ = TypeBGP4MP
	}
	switch typ {
	case TypeBGP4MP:
		return r.decodeBGP4MP(ts, sub, body, u)
	case TypeTableDumpV2:
		return r.decodeTableDumpV2(ts, sub, body)
	default:
		return nil, fmt.Errorf("mrt: unsupported record type %d", typ)
	}
}

func (r *Reader) decodeBGP4MP(ts time.Time, sub uint16, body []byte, u *bgp.Update) (Record, error) {
	as4 := sub == SubtypeBGP4MPMessageAS4 || sub == SubtypeBGP4MPStateChangeAS4
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := 2*asLen + 4
	if len(body) < need {
		return nil, fmt.Errorf("mrt: BGP4MP header truncated")
	}
	var peerAS, localAS uint32
	if as4 {
		peerAS = binary.BigEndian.Uint32(body)
		localAS = binary.BigEndian.Uint32(body[4:])
	} else {
		peerAS = uint32(binary.BigEndian.Uint16(body))
		localAS = uint32(binary.BigEndian.Uint16(body[2:]))
	}
	off := 2 * asLen
	ifIndex := binary.BigEndian.Uint16(body[off:])
	afi := binary.BigEndian.Uint16(body[off+2:])
	off += 4
	addrLen := 4
	if afi == bgp.AFIIPv6 {
		addrLen = 16
	}
	if len(body) < off+2*addrLen {
		return nil, fmt.Errorf("mrt: BGP4MP addresses truncated")
	}
	peerIP := addrFrom(body[off:off+addrLen], afi)
	localIP := addrFrom(body[off+addrLen:off+2*addrLen], afi)
	off += 2 * addrLen

	switch sub {
	case SubtypeBGP4MPMessage, SubtypeBGP4MPMessageAS4:
		var msg bgp.Message
		var err error
		rec := &r.msg
		if u != nil {
			msg, err = bgp.DecodeMessageInto(body[off:], u)
		} else {
			msg, err = bgp.DecodeMessage(body[off:])
			rec = new(BGP4MPMessage)
		}
		if err != nil {
			return nil, err
		}
		*rec = BGP4MPMessage{
			Timestamp: ts, PeerAS: peerAS, LocalAS: localAS, IfIndex: ifIndex,
			PeerIP: peerIP, LocalIP: localIP, Message: msg,
		}
		return rec, nil
	case SubtypeBGP4MPStateChange, SubtypeBGP4MPStateChangeAS4:
		if len(body) < off+4 {
			return nil, fmt.Errorf("mrt: state change truncated")
		}
		return &StateChange{
			Timestamp: ts, PeerAS: peerAS, LocalAS: localAS, IfIndex: ifIndex,
			PeerIP: peerIP, LocalIP: localIP,
			OldState: binary.BigEndian.Uint16(body[off:]),
			NewState: binary.BigEndian.Uint16(body[off+2:]),
		}, nil
	default:
		return nil, fmt.Errorf("mrt: unsupported BGP4MP subtype %d", sub)
	}
}

func (r *Reader) decodeTableDumpV2(ts time.Time, sub uint16, body []byte) (Record, error) {
	switch sub {
	case SubtypePeerIndexTable:
		return r.decodePeerIndexTable(ts, body)
	case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
		return decodeRIB(ts, sub, body)
	default:
		return nil, fmt.Errorf("mrt: unsupported TABLE_DUMP_V2 subtype %d", sub)
	}
}

func (r *Reader) decodePeerIndexTable(ts time.Time, body []byte) (Record, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("mrt: peer index table truncated")
	}
	pit := &PeerIndexTable{Timestamp: ts, CollectorID: netip.AddrFrom4([4]byte(body[:4]))}
	nameLen := int(binary.BigEndian.Uint16(body[4:]))
	if len(body) < 6+nameLen+2 {
		return nil, fmt.Errorf("mrt: peer index table name truncated")
	}
	pit.ViewName = string(body[6 : 6+nameLen])
	off := 6 + nameLen
	count := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	for i := 0; i < count; i++ {
		if len(body) < off+5 {
			return nil, fmt.Errorf("mrt: peer entry %d truncated", i)
		}
		typ := body[off]
		bgpID := netip.AddrFrom4([4]byte(body[off+1 : off+5]))
		off += 5
		addrLen, asLen := 4, 2
		if typ&0x01 != 0 {
			addrLen = 16
		}
		if typ&0x02 != 0 {
			asLen = 4
		}
		if len(body) < off+addrLen+asLen {
			return nil, fmt.Errorf("mrt: peer entry %d body truncated", i)
		}
		var ip netip.Addr
		if addrLen == 16 {
			ip = netip.AddrFrom16([16]byte(body[off : off+16]))
		} else {
			ip = netip.AddrFrom4([4]byte(body[off : off+4]))
		}
		off += addrLen
		var as uint32
		if asLen == 4 {
			as = binary.BigEndian.Uint32(body[off:])
		} else {
			as = uint32(binary.BigEndian.Uint16(body[off:]))
		}
		off += asLen
		pit.Peers = append(pit.Peers, PeerEntry{BGPID: bgpID, IP: ip, AS: as})
	}
	r.peers = pit.Peers
	return pit, nil
}

func decodeRIB(ts time.Time, sub uint16, body []byte) (Record, error) {
	if len(body) < 5 {
		return nil, fmt.Errorf("mrt: RIB record truncated")
	}
	rec := &RIB{Timestamp: ts, Sequence: binary.BigEndian.Uint32(body)}
	bits := int(body[4])
	v6 := sub == SubtypeRIBIPv6Unicast
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return nil, fmt.Errorf("mrt: RIB prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(body) < 5+n+2 {
		return nil, fmt.Errorf("mrt: RIB prefix truncated")
	}
	if v6 {
		var raw [16]byte
		copy(raw[:], body[5:5+n])
		rec.Prefix = netip.PrefixFrom(netip.AddrFrom16(raw), bits).Masked()
	} else {
		var raw [4]byte
		copy(raw[:], body[5:5+n])
		rec.Prefix = netip.PrefixFrom(netip.AddrFrom4(raw), bits).Masked()
	}
	off := 5 + n
	count := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	for i := 0; i < count; i++ {
		if len(body) < off+8 {
			return nil, fmt.Errorf("mrt: RIB entry %d truncated", i)
		}
		e := RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(body[off:]),
			OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(body[off+2:])), 0).UTC(),
		}
		attrLen := int(binary.BigEndian.Uint16(body[off+6:]))
		off += 8
		if len(body) < off+attrLen {
			return nil, fmt.Errorf("mrt: RIB entry %d attrs truncated", i)
		}
		attrs, err := bgp.DecodeAttributes(body[off : off+attrLen])
		if err != nil {
			return nil, err
		}
		e.Attrs = attrs
		off += attrLen
		rec.Entries = append(rec.Entries, e)
	}
	return rec, nil
}

func addrFrom(b []byte, afi uint16) netip.Addr {
	if afi == bgp.AFIIPv6 {
		return netip.AddrFrom16([16]byte(b[:16]))
	}
	return netip.AddrFrom4([4]byte(b[:4]))
}
