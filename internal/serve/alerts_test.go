package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/watch"
)

// goldenScenario is the replay the /alerts goldens were rendered from.
// Its alerts come from two detectors, carry origins and an em dash, and
// the tap's source adds <, & and >, which json.Marshal escapes.
const goldenScenario = "route-leak-amplification"

// TestAlertsGolden holds the shard's /alerts bytes, the full view and a
// detector's, to the bodies testdata/ keeps of one scenario replay, as
// the json.MarshalIndent render wrote them.
func TestAlertsGolden(t *testing.T) {
	eng := watch.NewEngine(watch.Config{})
	defer eng.Close()
	ctx := &scenario.Context{Gen: gen.Tiny(), Tap: feed.Tap("scenario:"+goldenScenario+" <&>", eng.Ingest)}
	if _, err := scenario.Run(goldenScenario, ctx); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	h := New(Options{Watch: eng, Registry: obs.NewRegistry()}).Handler()
	for path, file := range map[string]string{
		"/alerts":                     "alerts.json",
		"/alerts?detector=route-leak": "alerts-route-leak.json",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", goldenScenario+"-"+file))
		if err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, h, path); !bytes.Equal(got, want) {
			t.Errorf("%s of the %s replay is %d bytes, the golden %d:\n%s", path, goldenScenario, len(got), len(want), got)
		}
		for _, lit := range []string{`\u003c\u0026\u003e`, `"origin_as"`} {
			if !bytes.Contains(want, []byte(lit)) {
				t.Fatalf("golden %s never holds %s; its escaping case is vacuous", file, lit)
			}
		}
	}
}

// alertPieces are what randString strings together: the bytes the JSON
// string encoder treats specially (quote, backslash, every control
// byte class, the HTML-escaped <, > and &, U+2028/U+2029, invalid and
// truncated UTF-8) and plain text around them.
var alertPieces = []string{
	"", "a", "AS1000:666", " ", "scenario:rtbh", "<", ">", "&", `"`, `\`, "/",
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\xff", "\xe2\x80", "\xc3", "é", "—", "😀", "\ufffd",
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(5); n > 0; n-- {
		b.WriteString(alertPieces[r.IntN(len(alertPieces))])
	}
	return b.String()
}

// randTime draws zero times, UTC and zoned instants with any number of
// fractional digits, and the out-of-range years and zone offsets that
// time.Time.MarshalJSON refuses.
func randTime(r *rand.Rand) time.Time {
	t := time.Unix(r.Int64N(1<<34), r.Int64N(1e9)).UTC()
	switch r.IntN(8) {
	case 0:
		return time.Time{}
	case 1:
		return t.Truncate(time.Duration([]int64{1, 1e3, 1e6, 1e9}[r.IntN(4)]))
	case 2:
		return t.In(time.FixedZone("z", (r.IntN(47)-23)*1800+r.IntN(2)*17))
	case 3:
		return t.In(time.FixedZone("far", []int{24 * 3600, -24 * 3600, 99 * 3600}[r.IntN(3)]))
	case 4:
		return time.Date([]int{-1, 0, 9999, 10000}[r.IntN(4)], 12, 31, 23, 59, 59, r.IntN(1e9), time.UTC)
	default:
		return t
	}
}

// randPrefix draws valid v4, v6 and v4-mapped prefixes, the zero
// prefix (which renders as "") and invalid ones.
func randPrefix(r *rand.Rand) netip.Prefix {
	var a16 [16]byte
	for i := range a16 {
		a16[i] = byte(r.Uint32())
	}
	v4 := netip.AddrFrom4([4]byte(a16[:4]))
	switch r.IntN(6) {
	case 0:
		return netip.Prefix{}
	case 1:
		return netip.PrefixFrom(v4, 40) // invalid
	case 2:
		return netip.PrefixFrom(netip.AddrFrom16(a16), r.IntN(129))
	case 3:
		return netip.PrefixFrom(netip.AddrFrom16(netip.AddrFrom4([4]byte(a16[:4])).As16()), 96+r.IntN(33))
	default:
		return netip.PrefixFrom(v4, r.IntN(33))
	}
}

// randAlert draws one alert, every field from its edge cases half the
// time: the omitempty fields empty, numbers at 0 and their maximum,
// severities outside the named three.
func randAlert(r *rand.Rand) watch.Alert {
	num := func(max uint64) uint64 {
		switch r.IntN(4) {
		case 0:
			return 0
		case 1:
			return max
		default:
			return r.Uint64N(max)
		}
	}
	return watch.Alert{
		Seq:       num(1<<64 - 1),
		Time:      randTime(r),
		Detector:  randString(r),
		Severity:  watch.Severity(r.IntN(6) - 1),
		Prefix:    randPrefix(r),
		PeerAS:    uint32(num(1<<32 - 1)),
		Origin:    uint32(num(1<<32 - 1)),
		Community: randString(r),
		Source:    randString(r),
		Message:   randString(r),
	}
}

// alertsPayload is the /alerts response shape, the reference the
// encoder is held to.
type alertsPayload struct {
	Count  int           `json:"count"`
	Alerts []watch.Alert `json:"alerts"`
}

// referenceAlertsBody is the /alerts body encoding/json writes for alerts.
func referenceAlertsBody(alerts []watch.Alert) ([]byte, error) {
	return json.MarshalIndent(alertsPayload{Count: len(alerts), Alerts: alerts}, "", "  ")
}

// sameAsReference fails t unless alertsBody renders alerts exactly as
// encoding/json does, refusing exactly what it refuses.
func sameAsReference(t *testing.T, alerts []watch.Alert) {
	t.Helper()
	want, werr := referenceAlertsBody(alerts)
	got, gerr := alertsBody(alerts)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding/json error %v, alertsBody error %v, for %#v", werr, gerr, alerts)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("alertsBody diverged from encoding/json for %#v:\ngot  %q\nwant %q", alerts, got, want)
	}
	if werr == nil && cap(got) != len(got) {
		t.Fatalf("alertsBody sized a %d-byte body at %d bytes", len(got), cap(got))
	}
}

// TestAlertEncoderMatchesMarshalIndent is the seeded property behind the
// /alerts encoder: on random alert lists, nil and empty ones included,
// it writes json.MarshalIndent's bytes.
func TestAlertEncoderMatchesMarshalIndent(t *testing.T) {
	sameAsReference(t, nil)
	sameAsReference(t, []watch.Alert{})
	r := rand.New(rand.NewPCG(53, 1))
	for i := 0; i < 3000; i++ {
		alerts := make([]watch.Alert, r.IntN(6))
		for j := range alerts {
			alerts[j] = randAlert(r)
		}
		sameAsReference(t, alerts)
	}
}
