package bgp

import (
	"strconv"
	"strings"
)

// SegmentType identifies an AS_PATH segment kind (RFC 4271 §4.3).
type SegmentType uint8

const (
	// SegmentSet is an unordered AS_SET, counting as one hop.
	SegmentSet SegmentType = 1
	// SegmentSequence is an ordered AS_SEQUENCE.
	SegmentSequence SegmentType = 2
)

// PathSegment is one AS_PATH segment.
type PathSegment struct {
	Type SegmentType
	ASNs []uint32
}

// ASPath is an ordered list of path segments, nearest AS first.
type ASPath []PathSegment

// Path builds a single-sequence AS path from asns (nearest first).
func Path(asns ...uint32) ASPath {
	if len(asns) == 0 {
		return nil
	}
	return ASPath{{Type: SegmentSequence, ASNs: asns}}
}

// Sequence flattens the path into a single ASN list, expanding sets in
// their stored order. Nearest AS first.
func (p ASPath) Sequence() []uint32 {
	n := 0
	for _, seg := range p {
		n += len(seg.ASNs)
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, 0, n)
	for _, seg := range p {
		out = append(out, seg.ASNs...)
	}
	return out
}

// HopLength returns the path length as used by best-path selection: each
// sequence ASN counts one, each AS_SET counts one regardless of size.
func (p ASPath) HopLength() int {
	n := 0
	for _, seg := range p {
		if seg.Type == SegmentSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// Origin returns the last (origin) AS of the path, or 0 for an empty path.
func (p ASPath) Origin() uint32 {
	seq := p.Sequence()
	if len(seq) == 0 {
		return 0
	}
	return seq[len(seq)-1]
}

// Contains reports whether asn appears anywhere in the path.
func (p ASPath) Contains(asn uint32) bool {
	for _, seg := range p {
		for _, a := range seg.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// EqualSequence reports whether both paths flatten to the same ASN
// sequence (segment boundaries ignored, as Sequence would produce),
// without allocating — the hot-path form of comparing two Sequence()
// results.
func (p ASPath) EqualSequence(q ASPath) bool {
	pi, po, qi, qo := 0, 0, 0, 0
	for {
		for pi < len(p) && po >= len(p[pi].ASNs) {
			pi, po = pi+1, 0
		}
		for qi < len(q) && qo >= len(q[qi].ASNs) {
			qi, qo = qi+1, 0
		}
		pDone, qDone := pi >= len(p), qi >= len(q)
		if pDone || qDone {
			return pDone && qDone
		}
		if p[pi].ASNs[po] != q[qi].ASNs[qo] {
			return false
		}
		po++
		qo++
	}
}

// StripPrepending appends the flat AS sequence seq to dst with
// consecutive duplicates collapsed, the normalization the paper applies
// before all propagation analysis ("We remove AS path prepending to not
// bias the AS path", §4.1).
func StripPrepending(dst, seq []uint32) []uint32 {
	for i, a := range seq {
		if i == 0 || a != seq[i-1] {
			dst = append(dst, a)
		}
	}
	return dst
}

// Clone deep-copies the path.
func (p ASPath) Clone() ASPath {
	if p == nil {
		return nil
	}
	out := make(ASPath, len(p))
	for i, seg := range p {
		out[i] = PathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)}
	}
	return out
}

// HasLoop reports whether any ASN repeats non-consecutively, or whether
// asn itself appears — the standard eBGP loop check an AS applies before
// accepting a route.
func (p ASPath) HasLoop(asn uint32) bool {
	return p.Contains(asn)
}

// String renders the path in the usual "A B C" display form, with sets as
// "{A,B}".
func (p ASPath) String() string {
	var b strings.Builder
	for i, seg := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		if seg.Type == SegmentSet {
			b.WriteByte('{')
			for j, a := range seg.ASNs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(uint64(a), 10))
			}
			b.WriteByte('}')
			continue
		}
		for j, a := range seg.ASNs {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(a), 10))
		}
	}
	return b.String()
}

// IsPrivateASN reports whether asn falls in the RFC 6996 private ranges
// (64512–65534 16-bit, 4200000000–4294967294 32-bit) or is reserved
// (0, 65535, AS_TRANS boundary cases are not included).
func IsPrivateASN(asn uint32) bool {
	if asn >= 64512 && asn <= 65534 {
		return true
	}
	if asn >= 4200000000 && asn <= 4294967294 {
		return true
	}
	return asn == 0 || asn == 65535
}
