// Package bgp implements the BGP-4 wire protocol elements needed by the
// study: communities (RFC 1997), large communities (RFC 8092), path
// attributes, UPDATE/OPEN/KEEPALIVE/NOTIFICATION messages with 4-octet AS
// support, and IPv4/IPv6 NLRI encoding including MP_REACH/MP_UNREACH.
//
// The codec follows the decode-from-bytes / serialize-to-buffer style used
// by packet libraries: every wire element has an Encode method appending to
// a byte slice and a Decode counterpart returning the parsed value and the
// number of bytes consumed.
package bgp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Community is a 32-bit RFC 1997 BGP community. By convention the high 16
// bits hold the ASN that defines the community and the low 16 bits hold an
// AS-chosen label, rendered as "ASN:label".
type Community uint32

// Well-known communities (RFC 1997, RFC 3765, RFC 7999).
const (
	CommunityNoExport          Community = 0xFFFFFF01 // 65535:65281
	CommunityNoAdvertise       Community = 0xFFFFFF02 // 65535:65282
	CommunityNoExportSubconfed Community = 0xFFFFFF03 // 65535:65283
	CommunityNoPeer            Community = 0xFFFFFF04 // 65535:65284
	CommunityBlackhole         Community = 0xFFFF029A // 65535:666, RFC 7999
)

// BlackholeValue is the conventional low-16-bit label for blackholing
// communities (RFC 7999 and widespread provider practice).
const BlackholeValue uint16 = 666

// C builds a community from an ASN and a label value.
func C(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits, conventionally the defining AS.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits, the AS-chosen label.
func (c Community) Value() uint16 { return uint16(c) }

// IsWellKnown reports whether c falls in the reserved 65535:* range or the
// 0:* range, which are not attributable to a routed AS.
func (c Community) IsWellKnown() bool {
	return c.ASN() == 0xFFFF || c.ASN() == 0
}

// IsBlackhole reports whether c is the RFC 7999 BLACKHOLE community or uses
// the conventional :666 label.
func (c Community) IsBlackhole() bool {
	return c == CommunityBlackhole || c.Value() == BlackholeValue
}

// String renders the canonical "ASN:value" presentation format.
func (c Community) String() string {
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

// wellKnownNames maps the reserved well-known communities to their
// RFC symbolic names. Name and ParseCommunity round-trip through it.
var wellKnownNames = map[Community]string{
	CommunityNoExport:          "NO_EXPORT",
	CommunityNoAdvertise:       "NO_ADVERTISE",
	CommunityNoExportSubconfed: "NO_EXPORT_SUBCONFED",
	CommunityNoPeer:            "NOPEER",
	CommunityBlackhole:         "BLACKHOLE",
}

// Name returns the RFC symbolic name of a well-known community
// (NO_EXPORT, BLACKHOLE, …) and "" for everything else.
func (c Community) Name() string { return wellKnownNames[c] }

// Display renders the symbolic name for well-known communities and the
// "ASN:value" form otherwise — the human-facing print form shared by
// the CLIs.
func (c Community) Display() string {
	if n := wellKnownNames[c]; n != "" {
		return n
	}
	return c.String()
}

// MarshalText renders the canonical "ASN:value" form; together with
// UnmarshalText it makes Community round-trip through JSON object keys
// and text encodings.
func (c Community) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses the same forms ParseCommunity accepts.
func (c *Community) UnmarshalText(b []byte) error {
	v, err := ParseCommunity(string(b))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// ParseCommunity parses the "ASN:value" presentation format, plus the
// symbolic names of the well-known communities (case-insensitive, with
// "-" and "_" interchangeable: NO_EXPORT, no-export, …).
func ParseCommunity(s string) (Community, error) {
	switch strings.ReplaceAll(strings.ToLower(s), "_", "-") {
	case "no-export":
		return CommunityNoExport, nil
	case "no-advertise":
		return CommunityNoAdvertise, nil
	case "no-export-subconfed":
		return CommunityNoExportSubconfed, nil
	case "no-peer", "nopeer":
		return CommunityNoPeer, nil
	case "blackhole":
		return CommunityBlackhole, nil
	}
	a, v, ok := strings.Cut(s, ":")
	if !ok {
		return 0, fmt.Errorf("bgp: community %q: missing colon", s)
	}
	asn, err := strconv.ParseUint(a, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad ASN: %v", s, err)
	}
	val, err := strconv.ParseUint(v, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad value: %v", s, err)
	}
	return C(uint16(asn), uint16(val)), nil
}

// LargeCommunity is an RFC 8092 96-bit community: GlobalAdmin (a 4-octet
// ASN) plus two 32-bit data parts, rendered "ga:d1:d2".
type LargeCommunity struct {
	GlobalAdmin uint32
	Data1       uint32
	Data2       uint32
}

// String renders the canonical "ga:d1:d2" form.
func (l LargeCommunity) String() string {
	return fmt.Sprintf("%d:%d:%d", l.GlobalAdmin, l.Data1, l.Data2)
}

// CommunitySet maintains a sorted, duplicate-free community list, the
// canonical form routers use on the wire and in display (both Cisco and
// JunOS numerically sort communities, §6.3 of the paper).
type CommunitySet []Community

// NewCommunitySet builds a normalized set from arbitrary input.
func NewCommunitySet(cs ...Community) CommunitySet {
	out := make(CommunitySet, 0, len(cs))
	out = out.AddAll(cs...)
	return out
}

// Has reports membership.
func (s CommunitySet) Has(c Community) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	return i < len(s) && s[i] == c
}

// Add returns the set with c inserted in order, without duplicates. The
// receiver is not modified if reallocation occurs; use the return value.
func (s CommunitySet) Add(c Community) CommunitySet {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	if i < len(s) && s[i] == c {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	return s
}

// AddAll inserts every community in cs.
func (s CommunitySet) AddAll(cs ...Community) CommunitySet {
	for _, c := range cs {
		s = s.Add(c)
	}
	return s
}

// Clone returns an independent copy; needed because updates are shared
// between RIB entries in the simulator.
func (s CommunitySet) Clone() CommunitySet {
	if s == nil {
		return nil
	}
	out := make(CommunitySet, len(s))
	copy(out, s)
	return out
}

// ASNs returns the distinct high-16-bit ASNs referenced by the set, in
// ascending order.
func (s CommunitySet) ASNs() []uint16 {
	var out []uint16
	var last uint16
	for i, c := range s {
		a := c.ASN()
		if i == 0 || a != last {
			out = append(out, a)
			last = a
		}
	}
	return out
}

// String renders a space-separated presentation form.
func (s CommunitySet) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// Display renders the space-separated human-facing form: well-known
// communities by their RFC names, everything else as "ASN:value" (the
// per-element Community.Display, shared by the CLIs).
func (s CommunitySet) Display() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Display()
	}
	return strings.Join(parts, " ")
}
