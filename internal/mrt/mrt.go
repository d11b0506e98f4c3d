// Package mrt implements the MRT routing-information export format
// (RFC 6396) used by every public route-collector platform in the study
// (RIPE RIS, RouteViews, Isolario, PCH): BGP4MP / BGP4MP_ET message
// records and TABLE_DUMP_V2 RIB snapshots.
//
// The AS_PATH inside records uses the 4-octet encoding, matching the
// BGP4MP_MESSAGE_AS4 and TABLE_DUMP_V2 conventions.
package mrt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"bgpworms/internal/bgp"
)

// MRT record types (RFC 6396 §4).
const (
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16
	TypeBGP4MPET    uint16 = 17
)

// BGP4MP subtypes.
const (
	SubtypeBGP4MPStateChange    uint16 = 0
	SubtypeBGP4MPMessage        uint16 = 1
	SubtypeBGP4MPMessageAS4     uint16 = 4
	SubtypeBGP4MPStateChangeAS4 uint16 = 5
)

// TABLE_DUMP_V2 subtypes.
const (
	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
	SubtypeRIBIPv6Unicast uint16 = 4
)

// Record is any decoded MRT record.
type Record interface {
	// RecordType returns the MRT type code.
	RecordType() uint16
	// RecordSubtype returns the MRT subtype code.
	RecordSubtype() uint16
	// Time returns the record timestamp.
	Time() time.Time
	// appendBody serializes the record body (without MRT header).
	appendBody(dst []byte) ([]byte, error)
}

// BGP4MPMessage is a BGP4MP_MESSAGE_AS4 record: one BGP message observed
// on a collector peering session.
type BGP4MPMessage struct {
	Timestamp time.Time
	// Microsecond precision implies a BGP4MP_ET record on encode.
	ExtendedTime bool
	PeerAS       uint32
	LocalAS      uint32
	IfIndex      uint16
	PeerIP       netip.Addr
	LocalIP      netip.Addr
	Message      bgp.Message
}

// RecordType implements Record.
func (m *BGP4MPMessage) RecordType() uint16 {
	if m.ExtendedTime {
		return TypeBGP4MPET
	}
	return TypeBGP4MP
}

// RecordSubtype implements Record.
func (m *BGP4MPMessage) RecordSubtype() uint16 { return SubtypeBGP4MPMessage + 3 } // MESSAGE_AS4

// Time implements Record.
func (m *BGP4MPMessage) Time() time.Time { return m.Timestamp }

func (m *BGP4MPMessage) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, m.PeerAS)
	dst = binary.BigEndian.AppendUint32(dst, m.LocalAS)
	dst = binary.BigEndian.AppendUint16(dst, m.IfIndex)
	afi := bgp.AFIIPv4
	if m.PeerIP.Is6() {
		afi = bgp.AFIIPv6
	}
	dst = binary.BigEndian.AppendUint16(dst, afi)
	dst = appendAddr(dst, m.PeerIP, afi)
	dst = appendAddr(dst, m.LocalIP, afi)
	wire, err := m.Message.Encode()
	if err != nil {
		return nil, err
	}
	return append(dst, wire...), nil
}

// StateChange is a BGP4MP_STATE_CHANGE_AS4 record. OldState and NewState
// are RFC 6396 FSM state numbers (1 Idle … 6 Established).
type StateChange struct {
	Timestamp time.Time
	PeerAS    uint32
	LocalAS   uint32
	IfIndex   uint16
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	OldState  uint16
	NewState  uint16
}

// RecordType implements Record.
func (s *StateChange) RecordType() uint16 { return TypeBGP4MP }

// RecordSubtype implements Record.
func (s *StateChange) RecordSubtype() uint16 { return SubtypeBGP4MPStateChangeAS4 }

// Time implements Record.
func (s *StateChange) Time() time.Time { return s.Timestamp }

func (s *StateChange) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, s.PeerAS)
	dst = binary.BigEndian.AppendUint32(dst, s.LocalAS)
	dst = binary.BigEndian.AppendUint16(dst, s.IfIndex)
	afi := bgp.AFIIPv4
	if s.PeerIP.Is6() {
		afi = bgp.AFIIPv6
	}
	dst = binary.BigEndian.AppendUint16(dst, afi)
	dst = appendAddr(dst, s.PeerIP, afi)
	dst = appendAddr(dst, s.LocalIP, afi)
	dst = binary.BigEndian.AppendUint16(dst, s.OldState)
	dst = binary.BigEndian.AppendUint16(dst, s.NewState)
	return dst, nil
}

// PeerEntry is one collector peer in a PEER_INDEX_TABLE.
type PeerEntry struct {
	BGPID netip.Addr
	IP    netip.Addr
	AS    uint32
}

// PeerIndexTable is the TABLE_DUMP_V2 peer index, which every RIB record
// references by index.
type PeerIndexTable struct {
	Timestamp   time.Time
	CollectorID netip.Addr
	ViewName    string
	Peers       []PeerEntry
}

// RecordType implements Record.
func (p *PeerIndexTable) RecordType() uint16 { return TypeTableDumpV2 }

// RecordSubtype implements Record.
func (p *PeerIndexTable) RecordSubtype() uint16 { return SubtypePeerIndexTable }

// Time implements Record.
func (p *PeerIndexTable) Time() time.Time { return p.Timestamp }

func (p *PeerIndexTable) appendBody(dst []byte) ([]byte, error) {
	id := p.CollectorID
	if !id.IsValid() || !id.Is4() {
		id = netip.AddrFrom4([4]byte{})
	}
	b := id.As4()
	dst = append(dst, b[:]...)
	if len(p.ViewName) > 0xFFFF {
		return nil, fmt.Errorf("mrt: view name too long")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.ViewName)))
	dst = append(dst, p.ViewName...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Peers)))
	for _, pe := range p.Peers {
		// Peer type: bit 0 = IPv6 address, bit 1 = 4-byte AS (always set).
		typ := byte(0x02)
		if pe.IP.Is6() {
			typ |= 0x01
		}
		dst = append(dst, typ)
		bid := pe.BGPID
		if !bid.IsValid() || !bid.Is4() {
			bid = netip.AddrFrom4([4]byte{})
		}
		bb := bid.As4()
		dst = append(dst, bb[:]...)
		if pe.IP.Is6() {
			ip := pe.IP.As16()
			dst = append(dst, ip[:]...)
		} else {
			ip := pe.IP.As4()
			dst = append(dst, ip[:]...)
		}
		dst = binary.BigEndian.AppendUint32(dst, pe.AS)
	}
	return dst, nil
}

// RIBEntry is one path for a prefix in a TABLE_DUMP_V2 RIB record.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	Attrs          bgp.PathAttributes
}

// RIB is a TABLE_DUMP_V2 RIB_IPV4_UNICAST or RIB_IPV6_UNICAST record: all
// collector-known paths for one prefix.
type RIB struct {
	Timestamp time.Time
	Sequence  uint32
	Prefix    netip.Prefix
	Entries   []RIBEntry
}

// RecordType implements Record.
func (r *RIB) RecordType() uint16 { return TypeTableDumpV2 }

// RecordSubtype implements Record.
func (r *RIB) RecordSubtype() uint16 {
	if r.Prefix.Addr().Is6() {
		return SubtypeRIBIPv6Unicast
	}
	return SubtypeRIBIPv4Unicast
}

// Time implements Record.
func (r *RIB) Time() time.Time { return r.Timestamp }

func (r *RIB) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, r.Sequence)
	dst = appendRIBPrefix(dst, r.Prefix)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		dst = binary.BigEndian.AppendUint16(dst, e.PeerIndex)
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.OriginatedTime.Unix()))
		attrs := e.Attrs.Encode()
		if len(attrs) > 0xFFFF {
			return nil, fmt.Errorf("mrt: attribute block too long")
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
		dst = append(dst, attrs...)
	}
	return dst, nil
}

func appendAddr(dst []byte, a netip.Addr, afi uint16) []byte {
	if afi == bgp.AFIIPv6 {
		if !a.IsValid() {
			a = netip.IPv6Unspecified()
		}
		b := a.As16()
		return append(dst, b[:]...)
	}
	if !a.IsValid() || !a.Is4() {
		a = netip.AddrFrom4([4]byte{})
	}
	b := a.As4()
	return append(dst, b[:]...)
}

func appendRIBPrefix(dst []byte, p netip.Prefix) []byte {
	p = p.Masked()
	dst = append(dst, byte(p.Bits()))
	n := (p.Bits() + 7) / 8
	if p.Addr().Is4() {
		b := p.Addr().As4()
		return append(dst, b[:n]...)
	}
	b := p.Addr().As16()
	return append(dst, b[:n]...)
}
