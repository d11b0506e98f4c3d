package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
)

// alertIndex is the fleet's /alerts at one vector of shard ETags: the
// shard bodies and, in global sequence order, where each alert element
// sits in them. A merged answer is written from it run by run; no
// merged body is ever built. Shards own disjoint prefix ranges, so
// sequence numbers never collide, and a stable sort by seq of the
// bodies' elements in shard order reconstructs the exact global order.
//
// Copying elements verbatim is exact because shard and frontend write
// the same envelope at the same depth (alerts.go); only an element's seq
// and detector are read, never the alert.
type alertIndex struct {
	bodies [][]byte
	elems  []alertElem
}

// alertElem is one alert element: its sequence number, the body it sits
// in, and the byte ranges of the element and of its detector value.
type alertElem struct {
	seq              uint64
	body             uint32
	start, end       uint32
	detStart, detEnd uint32
}

// indexAlerts indexes the /alerts bodies of every shard. A body that is
// not an /alerts payload fails the whole index.
func indexAlerts(bodies [][]byte) (*alertIndex, error) {
	x := &alertIndex{bodies: bodies}
	for i, b := range bodies {
		var err error
		if x.elems, err = appendAlerts(x.elems, uint32(i), b); err != nil {
			return nil, fmt.Errorf("shard %d /alerts: %w", i, err)
		}
	}
	slices.SortStableFunc(x.elems, func(a, b alertElem) int { return cmp.Compare(a.seq, b.seq) })
	return x, nil
}

// write answers with the merged /alerts, or, for a non-empty detector,
// with the alerts whose detector field is the string literal
// json.Marshal writes for that name, as their shard wrote it. The
// length is computed before the first byte, and the body ends in the
// newline writeJSON adds.
func (x *alertIndex) write(w http.ResponseWriter, detector string) {
	var lit []byte // nil keeps every alert
	if detector != "" {
		lit, _ = json.Marshal(detector)
	}
	keep := func(e *alertElem) bool {
		return lit == nil || bytes.Equal(x.bodies[e.body][e.detStart:e.detEnd], lit)
	}
	count, elemBytes := 0, 0
	for i := range x.elems {
		if e := &x.elems[i]; keep(e) {
			count++
			elemBytes += int(e.end - e.start)
		}
	}
	size := alertsLen(count, elemBytes, count == 0) + 1
	jsonHeader(w, size)
	bw := bufio.NewWriterSize(w, min(size, 32<<10))
	var buf [64]byte
	bw.Write(appendAlertsHead(buf[:0], count, count == 0))
	// Kept elements that sit next to each other in one body, separated
	// there by exactly alertsSep, go out as one slice of it: the run
	// body[start:end], open once anything is kept.
	var body, start, end uint32
	open := false
	for i := range x.elems {
		e := &x.elems[i]
		if !keep(e) {
			continue
		}
		if open && e.body == body && e.start == end+uint32(len(alertsSep)) && string(x.bodies[body][end:e.start]) == alertsSep {
			end = e.end
			continue
		}
		if open {
			bw.Write(x.bodies[body][start:end])
			bw.WriteString(alertsSep)
		}
		body, start, end, open = e.body, e.start, e.end, true
	}
	if open {
		bw.Write(x.bodies[body][start:end])
	}
	bw.Write(appendAlertsTail(buf[:0], count))
	bw.WriteByte('\n')
	bw.Flush()
}

// appendAlerts appends the alert elements of one /alerts body, the
// body-th, to dst. json.Valid vets the whole body first, so the walk
// after it only follows structure.
func appendAlerts(dst []alertElem, body uint32, b []byte) ([]alertElem, error) {
	if uint64(len(b)) > math.MaxUint32 {
		return dst, errors.New("body is larger than 4 GiB")
	}
	if !json.Valid(b) {
		return dst, errors.New("body is not valid JSON")
	}
	s := jsonScan{b: b}
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
			if dst, err = s.alerts(dst, body); err != nil {
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
func (s *jsonScan) alerts(dst []alertElem, body uint32) ([]alertElem, error) {
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
		e := alertElem{body: body, start: uint32(s.i)}
		s.i++
		seq := false
		for s.peek() != '}' {
			key := s.member()
			v := s.value()
			switch string(key) {
			case `"seq"`:
				e.seq, seq = parseSeq(v)
			case `"detector"`:
				e.detEnd = uint32(s.i)
				e.detStart = e.detEnd - uint32(len(v))
			}
			s.comma()
		}
		s.i++
		if !seq {
			return dst, errors.New("an alert has no unsigned seq")
		}
		e.end = uint32(s.i)
		dst = append(dst, e)
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
