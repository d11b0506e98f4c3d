package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// mergeAlerts merges per-shard /alerts bodies into the body one process
// would have served, without decoding an alert: every element is copied
// as its shard rendered it, and only its seq and detector are read.
// Shards own disjoint prefix ranges, so sequence numbers never collide
// and a stable sort by seq reconstructs the exact global order. A
// non-empty detector keeps the alerts whose detector field is the string
// literal json.Marshal writes for that name, as the shard wrote it.
//
// Copying elements verbatim is exact because shard and frontend render
// the same alertsPayload at the same depth (json.MarshalIndent, two
// spaces); renderAlerts writes the envelope around them the way the
// encoder does (TestFrontendByteIdentity).
func mergeAlerts(bodies [][]byte, detector string) ([]byte, error) {
	var lit []byte // nil keeps every alert
	if detector != "" {
		lit, _ = json.Marshal(detector)
	}
	var merged []alertElem
	for i, b := range bodies {
		var err error
		if merged, err = appendAlerts(merged, b, lit); err != nil {
			return nil, fmt.Errorf("shard %d /alerts: %w", i, err)
		}
	}
	slices.SortStableFunc(merged, func(a, b alertElem) int { return cmp.Compare(a.seq, b.seq) })
	return renderAlerts(merged), nil
}

// alertElem is one alert of a shard body: the raw JSON object and its
// sequence number.
type alertElem struct {
	seq uint64
	raw []byte
}

// renderAlerts writes the alertsPayload envelope around elems exactly
// as json.MarshalIndent(alertsPayload{...}, "", "  ") renders it.
func renderAlerts(elems []alertElem) []byte {
	n := 64
	for _, e := range elems {
		n += len(e.raw) + 6
	}
	out := make([]byte, 0, n)
	out = append(out, "{\n  \"count\": "...)
	out = strconv.AppendInt(out, int64(len(elems)), 10)
	out = append(out, ",\n  \"alerts\": "...)
	if len(elems) == 0 {
		out = append(out, "null"...)
	} else {
		out = append(out, "[\n    "...)
		for i, e := range elems {
			if i > 0 {
				out = append(out, ",\n    "...)
			}
			out = append(out, e.raw...)
		}
		out = append(out, "\n  ]"...)
	}
	return append(out, "\n}"...)
}

// appendAlerts appends the alerts of one /alerts body to dst: all of
// them, or those whose detector field is the literal detector. json.Valid
// vets the whole body first, so the walk after it only follows
// structure.
func appendAlerts(dst []alertElem, body []byte, detector []byte) ([]alertElem, error) {
	if !json.Valid(body) {
		return dst, errors.New("body is not valid JSON")
	}
	s := jsonScan{b: body}
	if s.peek() != '{' {
		return dst, errors.New("body is not a JSON object")
	}
	s.i++
	found := false
	for s.peek() != '}' {
		key := s.member()
		if string(key) != `"alerts"` {
			s.value()
		} else {
			found = true
			var err error
			if dst, err = s.alerts(dst, detector); err != nil {
				return dst, err
			}
		}
		s.comma()
	}
	if !found {
		return dst, errors.New(`body has no "alerts" member`)
	}
	return dst, nil
}

// alerts reads the "alerts" member's value: null or an array of alert
// objects.
func (s *jsonScan) alerts(dst []alertElem, detector []byte) ([]alertElem, error) {
	switch s.peek() {
	case 'n':
		s.value()
		return dst, nil
	case '[':
	default:
		return dst, errors.New(`"alerts" is neither an array nor null`)
	}
	s.i++
	for s.peek() != ']' {
		if s.peek() != '{' {
			return dst, errors.New("an alert is not a JSON object")
		}
		start := s.i
		s.i++
		var e alertElem
		seq, keep := false, detector == nil
		for s.peek() != '}' {
			key := s.member()
			v := s.value()
			switch string(key) {
			case `"seq"`:
				e.seq, seq = parseSeq(v)
			case `"detector"`:
				keep = keep || bytes.Equal(v, detector)
			}
			s.comma()
		}
		s.i++
		if !seq {
			return dst, errors.New("an alert has no unsigned seq")
		}
		if keep {
			e.raw = s.b[start:s.i]
			dst = append(dst, e)
		}
		s.comma()
	}
	s.i++
	return dst, nil
}

// parseSeq reads an unsigned decimal literal of at most 19 digits.
func parseSeq(v []byte) (uint64, bool) {
	if len(v) == 0 || len(v) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// jsonScan walks a document json.Valid has accepted, so it tracks only
// structure: whitespace, string literals with their escapes, nesting.
type jsonScan struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *jsonScan) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return s.b[s.i]
		}
	}
	return 0
}

// comma steps over the separator after a member or element, if any.
func (s *jsonScan) comma() {
	if s.peek() == ',' {
		s.i++
	}
}

// member reads an object member's key and its colon, returning the key
// as its raw string literal.
func (s *jsonScan) member() []byte {
	key := s.value()
	s.peek()
	s.i++ // ':'
	return key
}

// value steps over the next value and returns its bytes.
func (s *jsonScan) value() []byte {
	s.peek()
	start, depth := s.i, 0
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			for s.i++; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
				if s.b[s.i] == '\\' {
					s.i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return s.b[start:s.i] // a scalar ends at its container's close
			}
			depth--
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return s.b[start:s.i]
			}
		}
		s.i++
		if depth == 0 && (s.b[start] == '"' || s.b[start] == '{' || s.b[start] == '[') {
			return s.b[start:s.i]
		}
	}
	return s.b[start:s.i]
}
