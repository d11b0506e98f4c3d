package serve

import (
	"net/netip"
	"testing"
	"time"

	"bgpworms/internal/watch"
)

// FuzzAlertJSON is the native fuzzer for the /alerts encoder: any alert
// built from the inputs must render, alone and twice over, as
// json.MarshalIndent renders it, and fail exactly when it fails. A zero
// sec and nsec is the zero Time; an address of 4 or 16 bytes makes a
// prefix with bits (invalid when out of range), any other length the
// zero prefix. Seeds: testdata/fuzz/FuzzAlertJSON (HTML and control
// bytes, U+2028/U+2029, invalid UTF-8, out-of-range years and zone
// offsets, invalid prefixes, empty omitempty fields).
func FuzzAlertJSON(f *testing.F) {
	f.Add(uint64(2), int64(1522540800), int64(74e6), 0, "community-squat", 1,
		[]byte{20, 0, 0, 0}, 24, uint32(10000), uint32(10000), "65357:2", "scenario:rtbh <&>", "origin shifted — route-leak")
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, offset int, detector string, severity int,
		addr []byte, bits int, peer, origin uint32, community, source, message string) {
		a := watch.Alert{
			Seq: seq, Detector: detector, Severity: watch.Severity(severity),
			PeerAS: peer, Origin: origin, Community: community, Source: source, Message: message,
		}
		if sec != 0 || nsec != 0 {
			a.Time = time.Unix(sec, nsec).In(time.FixedZone("z", offset%(100*3600)))
		}
		if ip, ok := netip.AddrFromSlice(addr); ok {
			a.Prefix = netip.PrefixFrom(ip, bits)
		}
		sameAsReference(t, []watch.Alert{a})
		sameAsReference(t, []watch.Alert{a, a})
	})
}
