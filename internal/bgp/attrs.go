package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Origin is the ORIGIN well-known mandatory attribute.
type Origin uint8

// Origin values (RFC 4271).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String renders the conventional single-letter display form.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "i"
	case OriginEGP:
		return "e"
	default:
		return "?"
	}
}

// Path attribute type codes.
const (
	AttrTypeOrigin           uint8 = 1
	AttrTypeASPath           uint8 = 2
	AttrTypeNextHop          uint8 = 3
	AttrTypeMED              uint8 = 4
	AttrTypeLocalPref        uint8 = 5
	AttrTypeAtomicAggregate  uint8 = 6
	AttrTypeAggregator       uint8 = 7
	AttrTypeCommunities      uint8 = 8
	AttrTypeMPReachNLRI      uint8 = 14
	AttrTypeMPUnreachNLRI    uint8 = 15
	AttrTypeLargeCommunities uint8 = 32
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// Aggregator is the AGGREGATOR attribute (4-octet AS form, RFC 6793).
type Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// RawAttr preserves an attribute this codec does not interpret, so that
// transitive unknown attributes survive re-encoding, as RFC 4271 requires.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Value []byte
}

// PathAttributes is the parsed attribute set of an UPDATE.
type PathAttributes struct {
	Origin           Origin
	ASPath           ASPath
	NextHop          netip.Addr // unset => no NEXT_HOP attribute
	MED              *uint32
	LocalPref        *uint32
	AtomicAggregate  bool
	Aggregator       *Aggregator
	Communities      CommunitySet
	LargeCommunities []LargeCommunity

	// MPReach/MPUnreach carry IPv6 unicast NLRI (RFC 4760).
	MPReachNextHop netip.Addr
	MPReachNLRI    []netip.Prefix
	MPUnreachNLRI  []netip.Prefix

	Unknown []RawAttr
}

func appendAttrHeader(dst []byte, flags, typ uint8, length int) []byte {
	if length > 0xFF {
		flags |= flagExtLen
		dst = append(dst, flags, typ, byte(length>>8), byte(length))
	} else {
		dst = append(dst, flags, typ, byte(length))
	}
	return dst
}

// Encode serializes the attribute set in ascending type order using
// 4-octet AS_PATH encoding.
func (a *PathAttributes) Encode() []byte {
	var dst []byte

	// ORIGIN — well-known mandatory when a route is present.
	dst = appendAttrHeader(dst, flagTransitive, AttrTypeOrigin, 1)
	dst = append(dst, byte(a.Origin))

	// AS_PATH — always emitted (may be zero-length for locally originated
	// iBGP routes).
	body := encodeASPath(a.ASPath)
	dst = appendAttrHeader(dst, flagTransitive, AttrTypeASPath, len(body))
	dst = append(dst, body...)

	if a.NextHop.IsValid() && a.NextHop.Is4() {
		b := a.NextHop.As4()
		dst = appendAttrHeader(dst, flagTransitive, AttrTypeNextHop, 4)
		dst = append(dst, b[:]...)
	}
	if a.MED != nil {
		dst = appendAttrHeader(dst, flagOptional, AttrTypeMED, 4)
		dst = binary.BigEndian.AppendUint32(dst, *a.MED)
	}
	if a.LocalPref != nil {
		dst = appendAttrHeader(dst, flagTransitive, AttrTypeLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, *a.LocalPref)
	}
	if a.AtomicAggregate {
		dst = appendAttrHeader(dst, flagTransitive, AttrTypeAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrTypeAggregator, 8)
		dst = binary.BigEndian.AppendUint32(dst, a.Aggregator.ASN)
		b := a.Aggregator.Addr.As4()
		dst = append(dst, b[:]...)
	}
	if len(a.Communities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrTypeCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	if len(a.MPReachNLRI) > 0 {
		body := encodeMPReach(a.MPReachNextHop, a.MPReachNLRI)
		dst = appendAttrHeader(dst, flagOptional, AttrTypeMPReachNLRI, len(body))
		dst = append(dst, body...)
	}
	if len(a.MPUnreachNLRI) > 0 {
		body := encodeMPUnreach(a.MPUnreachNLRI)
		dst = appendAttrHeader(dst, flagOptional, AttrTypeMPUnreachNLRI, len(body))
		dst = append(dst, body...)
	}
	if len(a.LargeCommunities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrTypeLargeCommunities, 12*len(a.LargeCommunities))
		for _, l := range a.LargeCommunities {
			dst = binary.BigEndian.AppendUint32(dst, l.GlobalAdmin)
			dst = binary.BigEndian.AppendUint32(dst, l.Data1)
			dst = binary.BigEndian.AppendUint32(dst, l.Data2)
		}
	}
	for _, u := range a.Unknown {
		dst = appendAttrHeader(dst, u.Flags&^flagExtLen, u.Type, len(u.Value))
		dst = append(dst, u.Value...)
	}
	return dst
}

func encodeASPath(p ASPath) []byte {
	var dst []byte
	for _, seg := range p {
		dst = append(dst, byte(seg.Type), byte(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			dst = binary.BigEndian.AppendUint32(dst, a)
		}
	}
	return dst
}

// decodeASPath parses an AS_PATH attribute into p, whose segments and
// their ASN arrays (up to cap(p)) it refills in place.
func decodeASPath(p ASPath, b []byte) (ASPath, error) {
	p = p[:0]
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		typ, cnt := SegmentType(b[0]), int(b[1])
		if typ != SegmentSet && typ != SegmentSequence {
			return nil, fmt.Errorf("bgp: bad AS_PATH segment type %d", typ)
		}
		b = b[2:]
		if len(b) < 4*cnt {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment body")
		}
		var asns []uint32
		if len(p) < cap(p) {
			// The slot this segment lands in still holds an earlier
			// decode's ASN array.
			asns = p[:len(p)+1][len(p)].ASNs[:0]
		}
		if cap(asns) < cnt {
			asns = make([]uint32, 0, cnt)
		}
		for i := 0; i < cnt; i++ {
			asns = append(asns, binary.BigEndian.Uint32(b[4*i:]))
		}
		b = b[4*cnt:]
		p = append(p, PathSegment{Type: typ, ASNs: asns})
	}
	return p, nil
}

func encodeMPReach(nh netip.Addr, nlri []netip.Prefix) []byte {
	var dst []byte
	dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
	dst = append(dst, SAFIUnicast)
	if nh.IsValid() && nh.Is6() {
		b := nh.As16()
		dst = append(dst, 16)
		dst = append(dst, b[:]...)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, 0) // reserved
	return encodeNLRIList(dst, nlri)
}

func encodeMPUnreach(nlri []netip.Prefix) []byte {
	var dst []byte
	dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
	dst = append(dst, SAFIUnicast)
	return encodeNLRIList(dst, nlri)
}

// DecodeAttributes parses the path attribute block of an UPDATE into a
// fresh attribute set.
func DecodeAttributes(b []byte) (PathAttributes, error) {
	var a PathAttributes
	err := a.decode(b)
	return a, err
}

// decode parses an attribute block into a, refilling its slices in
// place: every field is reset first, so nothing of the previous block
// survives.
func (a *PathAttributes) decode(b []byte) error {
	*a = PathAttributes{
		ASPath:           a.ASPath[:0],
		Communities:      a.Communities[:0],
		LargeCommunities: a.LargeCommunities[:0],
		MPReachNLRI:      a.MPReachNLRI[:0],
		MPUnreachNLRI:    a.MPUnreachNLRI[:0],
		Unknown:          a.Unknown[:0],
	}
	for len(b) > 0 {
		if len(b) < 3 {
			return fmt.Errorf("bgp: truncated attribute header")
		}
		flags, typ := b[0], b[1]
		var length, hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return fmt.Errorf("bgp: truncated extended attribute header")
			}
			length, hdr = int(binary.BigEndian.Uint16(b[2:])), 4
		} else {
			length, hdr = int(b[2]), 3
		}
		if len(b) < hdr+length {
			return fmt.Errorf("bgp: attribute %d body truncated (want %d, have %d)", typ, length, len(b)-hdr)
		}
		val := b[hdr : hdr+length]
		b = b[hdr+length:]
		if err := a.decodeOne(flags, typ, val); err != nil {
			return err
		}
	}
	return nil
}

// appendRaw appends an uninterpreted attribute to list, reusing the
// value buffer of the slot it lands in.
func appendRaw(list []RawAttr, flags, typ uint8, val []byte) []RawAttr {
	n := len(list)
	if n < cap(list) {
		list = list[:n+1]
	} else {
		list = append(list, RawAttr{})
	}
	r := &list[n]
	r.Flags, r.Type, r.Value = flags, typ, append(r.Value[:0], val...)
	return list
}

func (a *PathAttributes) decodeOne(flags, typ uint8, val []byte) error {
	switch typ {
	case AttrTypeOrigin:
		if len(val) != 1 {
			return fmt.Errorf("bgp: ORIGIN length %d", len(val))
		}
		a.Origin = Origin(val[0])
	case AttrTypeASPath:
		p, err := decodeASPath(a.ASPath, val)
		if err != nil {
			return err
		}
		a.ASPath = p
	case AttrTypeNextHop:
		if len(val) != 4 {
			return fmt.Errorf("bgp: NEXT_HOP length %d", len(val))
		}
		a.NextHop = netip.AddrFrom4([4]byte(val))
	case AttrTypeMED:
		if len(val) != 4 {
			return fmt.Errorf("bgp: MED length %d", len(val))
		}
		v := binary.BigEndian.Uint32(val)
		a.MED = &v
	case AttrTypeLocalPref:
		if len(val) != 4 {
			return fmt.Errorf("bgp: LOCAL_PREF length %d", len(val))
		}
		v := binary.BigEndian.Uint32(val)
		a.LocalPref = &v
	case AttrTypeAtomicAggregate:
		a.AtomicAggregate = true
	case AttrTypeAggregator:
		if len(val) != 8 {
			return fmt.Errorf("bgp: AGGREGATOR length %d", len(val))
		}
		a.Aggregator = &Aggregator{
			ASN:  binary.BigEndian.Uint32(val),
			Addr: netip.AddrFrom4([4]byte(val[4:8])),
		}
	case AttrTypeCommunities:
		if len(val)%4 != 0 {
			return fmt.Errorf("bgp: COMMUNITIES length %d", len(val))
		}
		cs := a.Communities[:0]
		for i := 0; i < len(val); i += 4 {
			c := Community(binary.BigEndian.Uint32(val[i:]))
			if n := len(cs); n == 0 || c > cs[n-1] {
				cs = append(cs, c) // wire sets arrive sorted
			} else {
				cs = cs.Add(c)
			}
		}
		a.Communities = cs
	case AttrTypeMPReachNLRI:
		return a.decodeMPReach(val)
	case AttrTypeMPUnreachNLRI:
		return a.decodeMPUnreach(val)
	case AttrTypeLargeCommunities:
		if len(val)%12 != 0 {
			return fmt.Errorf("bgp: LARGE_COMMUNITY length %d", len(val))
		}
		for i := 0; i+12 <= len(val); i += 12 {
			a.LargeCommunities = append(a.LargeCommunities, LargeCommunity{
				GlobalAdmin: binary.BigEndian.Uint32(val[i:]),
				Data1:       binary.BigEndian.Uint32(val[i+4:]),
				Data2:       binary.BigEndian.Uint32(val[i+8:]),
			})
		}
	default:
		a.Unknown = appendRaw(a.Unknown, flags, typ, val)
	}
	return nil
}

func (a *PathAttributes) decodeMPReach(val []byte) error {
	if len(val) < 5 {
		return fmt.Errorf("bgp: MP_REACH too short")
	}
	afi := binary.BigEndian.Uint16(val)
	safi := val[2]
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return fmt.Errorf("bgp: MP_REACH next-hop truncated")
	}
	if nhLen == 16 {
		a.MPReachNextHop = netip.AddrFrom16([16]byte(val[4 : 4+16]))
	}
	rest := val[4+nhLen+1:]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		// Preserve unsupported families untouched.
		a.Unknown = appendRaw(a.Unknown, flagOptional, AttrTypeMPReachNLRI, val)
		return nil
	}
	nlri, err := appendNLRIList(a.MPReachNLRI[:0], rest, true)
	if err != nil {
		return err
	}
	a.MPReachNLRI = nlri
	return nil
}

func (a *PathAttributes) decodeMPUnreach(val []byte) error {
	if len(val) < 3 {
		return fmt.Errorf("bgp: MP_UNREACH too short")
	}
	afi := binary.BigEndian.Uint16(val)
	safi := val[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		a.Unknown = appendRaw(a.Unknown, flagOptional, AttrTypeMPUnreachNLRI, val)
		return nil
	}
	nlri, err := appendNLRIList(a.MPUnreachNLRI[:0], val[3:], true)
	if err != nil {
		return err
	}
	a.MPUnreachNLRI = nlri
	return nil
}
