package bgp

import (
	"fmt"
	"net/netip"
)

// AFI values (address family identifiers).
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2
)

// SAFIUnicast is the unicast subsequent address family.
const SAFIUnicast uint8 = 1

// appendNLRI appends the RFC 4271 NLRI encoding of p: one length byte in
// bits followed by the minimum number of prefix octets.
func appendNLRI(dst []byte, p netip.Prefix) []byte {
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

// decodeNLRI reads one NLRI-encoded prefix of the given family from b,
// returning the prefix and bytes consumed.
func decodeNLRI(b []byte, v6 bool) (netip.Prefix, int, error) {
	if len(b) < 1 {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI")
	}
	bits := int(b[0])
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: NLRI length %d exceeds %d bits", bits, maxBits)
	}
	n := (bits + 7) / 8
	if len(b) < 1+n {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI body (want %d bytes, have %d)", n, len(b)-1)
	}
	var addr netip.Addr
	if v6 {
		var raw [16]byte
		copy(raw[:], b[1:1+n])
		addr = netip.AddrFrom16(raw)
	} else {
		var raw [4]byte
		copy(raw[:], b[1:1+n])
		addr = netip.AddrFrom4(raw)
	}
	p := netip.PrefixFrom(addr, bits)
	if p.Masked() != p {
		// Trailing bits beyond the mask must be zero per convention; be
		// liberal and mask rather than reject.
		p = p.Masked()
	}
	return p, 1 + n, nil
}

// encodeNLRIList appends each prefix in ps.
func encodeNLRIList(dst []byte, ps []netip.Prefix) []byte {
	for _, p := range ps {
		dst = appendNLRI(dst, p)
	}
	return dst
}

// appendNLRIList parses back-to-back NLRI entries filling exactly b and
// appends them to dst.
func appendNLRIList(dst []netip.Prefix, b []byte, v6 bool) ([]netip.Prefix, error) {
	for len(b) > 0 {
		p, n, err := decodeNLRI(b, v6)
		if err != nil {
			return nil, err
		}
		dst = append(dst, p)
		b = b[n:]
	}
	return dst, nil
}
