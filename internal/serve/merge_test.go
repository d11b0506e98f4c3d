package serve

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"bgpworms/internal/watch"
)

// TestAlertIndexWritesRuns holds the merged /alerts the index writes,
// run by run, to encoding/json's rendering of the merged list, full and
// filtered. Three bodies interleave their sequence numbers, so runs
// start and stop at every shard switch and at every element a filter
// drops; the third body lists its alerts backwards, so elements that
// sit next to each other there are not next to each other in the
// answer and must not go out as one run.
func TestAlertIndexWritesRuns(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 3))
	t0 := time.Date(2018, 4, 3, 12, 30, 0, 0, time.UTC)
	detectors := []string{"blackhole-onset", "community-squat", "route-leak"}
	var all []watch.Alert
	shards := make([][]watch.Alert, 3)
	for seq := uint64(1); seq <= 400; seq++ {
		a := watch.Alert{Seq: seq, Time: t0.Add(time.Duration(seq) * time.Second),
			Detector: detectors[r.IntN(len(detectors))], PeerAS: uint32(r.IntN(1000)),
			Message: "alert " + strconv.FormatUint(seq, 10)}
		all = append(all, a)
		// Runs of one shard are mostly short, sometimes long.
		i := int(seq/7) % 3
		if r.IntN(4) == 0 {
			i = r.IntN(3)
		}
		shards[i] = append(shards[i], a)
	}
	slices.Reverse(shards[2])
	bodies := make([][]byte, len(shards))
	for i, alerts := range shards {
		var err error
		if bodies[i], err = alertsBody(alerts); err != nil {
			t.Fatal(err)
		}
	}
	x, err := indexAlerts(bodies)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(all, func(a, b watch.Alert) int { return cmp.Compare(a.Seq, b.Seq) })
	for _, detector := range append([]string{"", "no-such-detector"}, detectors...) {
		var want []watch.Alert
		for _, a := range all {
			if detector == "" || a.Detector == detector {
				want = append(want, a)
			}
		}
		body, err := referenceAlertsBody(want)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, '\n')
		rec := httptest.NewRecorder()
		x.write(rec, detector)
		if got := rec.Body.Bytes(); !bytes.Equal(got, body) {
			t.Fatalf("detector %q: merged body differs from encoding/json's (%d vs %d bytes)", detector, len(got), len(body))
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("detector %q: Content-Length %s for a %d-byte body", detector, cl, len(body))
		}
	}
}
