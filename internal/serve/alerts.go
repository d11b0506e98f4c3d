package serve

import (
	"strconv"
	"time"
	"unicode/utf8"

	"bgpworms/internal/watch"
)

// An /alerts body is what json.MarshalIndent writes, at two-space
// indent, for
//
//	struct {
//		Count  int           `json:"count"`
//		Alerts []watch.Alert `json:"alerts"`
//	}
//
// The shard writes it with alertsBody, the frontend streams its merge
// of shard bodies; both write the envelope with the functions below, so
// the two agree byte for byte (TestFrontendByteIdentity).

// alertsSep separates two elements of the list.
const alertsSep = ",\n    "

// appendAlertsHead appends the envelope up to the list's first element:
// the count, then null for a nil list, [] for an empty one, or the
// list's opening.
func appendAlertsHead(dst []byte, count int, null bool) []byte {
	dst = append(dst, "{\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	dst = append(dst, ",\n  \"alerts\": "...)
	switch {
	case null:
		return append(dst, "null"...)
	case count == 0:
		return append(dst, "[]"...)
	}
	return append(dst, "[\n    "...)
}

// appendAlertsTail appends the envelope after the list's last element.
func appendAlertsTail(dst []byte, count int) []byte {
	if count > 0 {
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}"...)
}

// alertsLen is the length of the body around count elements whose
// rendered bytes sum to elemBytes.
func alertsLen(count, elemBytes int, null bool) int {
	var b [64]byte
	n := len(appendAlertsHead(b[:0], count, null)) + len(appendAlertsTail(b[:0], count)) + elemBytes
	if count > 1 {
		n += (count - 1) * len(alertsSep)
	}
	return n
}

// alertsBody renders the /alerts body of alerts into one buffer of its
// exact size: each alert is rendered once to measure it and once into
// the body, with no reflection and no re-indent pass. A nil list
// renders "alerts": null, an empty one [].
func alertsBody(alerts []watch.Alert) ([]byte, error) {
	var scratch [1024]byte
	n := 0
	for i := range alerts {
		elem, err := appendAlert(scratch[:0], &alerts[i])
		if err != nil {
			return nil, err
		}
		n += len(elem)
	}
	body := make([]byte, 0, alertsLen(len(alerts), n, alerts == nil))
	body = appendAlertsHead(body, len(alerts), alerts == nil)
	for i := range alerts {
		if i > 0 {
			body = append(body, alertsSep...)
		}
		body, _ = appendAlert(body, &alerts[i])
	}
	return appendAlertsTail(body, len(alerts)), nil
}

// appendAlert appends one element of the list: the alert's object as
// json.MarshalIndent writes it at that depth. Its only failure is a Time
// that time.Time.MarshalJSON refuses.
func appendAlert(dst []byte, a *watch.Alert) ([]byte, error) {
	dst = append(dst, "{\n      \"seq\": "...)
	dst = strconv.AppendUint(dst, a.Seq, 10)
	dst = append(dst, ",\n      \"time\": "...)
	dst, err := appendTime(dst, a.Time)
	if err != nil {
		return dst, err
	}
	dst = append(dst, ",\n      \"detector\": "...)
	dst = appendJSONString(dst, a.Detector)
	dst = append(dst, ",\n      \"severity\": "...)
	dst = appendJSONString(dst, a.Severity.String())
	// A prefix's text is digits, hex, '.', ':' and '/', empty for the
	// zero prefix, or "invalid Prefix": nothing the string encoder
	// escapes.
	dst = append(dst, ",\n      \"prefix\": \""...)
	dst = a.Prefix.AppendTo(dst)
	dst = append(dst, "\",\n      \"peer_as\": "...)
	dst = strconv.AppendUint(dst, uint64(a.PeerAS), 10)
	if a.Origin != 0 {
		dst = append(dst, ",\n      \"origin_as\": "...)
		dst = strconv.AppendUint(dst, uint64(a.Origin), 10)
	}
	if a.Community != "" {
		dst = append(dst, ",\n      \"community\": "...)
		dst = appendJSONString(dst, a.Community)
	}
	if a.Source != "" {
		dst = append(dst, ",\n      \"source\": "...)
		dst = appendJSONString(dst, a.Source)
	}
	dst = append(dst, ",\n      \"message\": "...)
	dst = appendJSONString(dst, a.Message)
	return append(dst, "\n    }"...), nil
}

// appendTime appends t as time.Time.MarshalJSON writes it. The common
// case, a four-digit year in UTC, is formatted in place; any other
// (a zone offset, a year MarshalJSON refuses) goes through MarshalJSON
// itself, error included.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if s := dst[n0+1:]; len(s) > 4 && s[4] == '-' && s[len(s)-1] == 'Z' {
		return append(dst, '"'), nil
	}
	b, err := t.MarshalJSON()
	return append(dst[:n0], b...), err
}

// jsonSafe marks the ASCII bytes a JSON string holds as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends s as encoding/json writes a string: quoted,
// with " and \ escaped, control bytes as \b, \f, \n, \r, \t or \u00XX,
// <, > and & as \u003c, \u003e and \u0026, invalid UTF-8 as \ufffd,
// and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
