package feed_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/core"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/mrt"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/semantics"
	"bgpworms/internal/simnet"
	"bgpworms/internal/watch"
)

// churnWorld is the tiny world after a churn month, built once for the
// package: every test here only reads its collectors.
var churnWorld = sync.OnceValues(func() (*gen.Internet, error) {
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		return nil, err
	}
	_, err = w.RunChurn()
	return w, err
})

func collectors(t testing.TB) []*collector.Collector {
	t.Helper()
	w, err := churnWorld()
	if err != nil {
		t.Fatal(err)
	}
	return w.Collectors
}

// TestStreamMRTMatchesCollectorRecords: the wire path and the in-memory
// path make the same records. For every collector, decoding its archive
// with StreamMRT yields, in order, exactly the records core.FromCollectors
// reads off the recorded deliveries. Three fields need saying:
//   - Seq crosses no wire and neither path sets it; the consuming engine
//     stamps it.
//   - Source is the label the reader supplies (the collector name), not
//     archive content.
//   - Time is the one field the wire cannot carry whole: the archives
//     are plain BGP4MP, whose header holds whole seconds, so the
//     collectors' 37 ms session clock arrives truncated to the second.
//
// An empty path or community set may be nil on one side and empty on
// the other; every consumer reads both as none.
//
// Session metadata the archive does not carry (the peer list, feed
// types, the platform) is not part of the record.
func TestStreamMRTMatchesCollectorRecords(t *testing.T) {
	for _, c := range collectors(t) {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
		var got []feed.Event
		if _, err := feed.StreamMRT(&buf, c.Name, func(ev feed.Event) { got = append(got, ev) }); err != nil {
			t.Fatal(err)
		}
		want := core.FromCollectors([]*collector.Collector{c}).Updates
		if len(got) != len(want) {
			t.Fatalf("%s: %d records off the wire, %d in memory", c.Name, len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("%s recorded nothing; the comparison is vacuous", c.Name)
		}
		for i := range want {
			g, w := got[i], want[i]
			if !g.Time.Equal(w.Time.Truncate(time.Second)) {
				t.Fatalf("%s record %d: time %v off the wire, %v in memory", c.Name, i, g.Time, w.Time)
			}
			if !reflect.DeepEqual(normalized(g), normalized(w)) {
				t.Fatalf("%s record %d differs:\n wire   %+v\n memory %+v", c.Name, i, g, w)
			}
		}
	}
}

// normalized clears what TestStreamMRTMatchesCollectorRecords checks on
// its own (Time) and makes an empty path or community set nil.
func normalized(ev feed.Event) feed.Event {
	ev.Time = time.Time{}
	if len(ev.ASPath) == 0 {
		ev.ASPath = nil
	}
	if len(ev.Communities) == 0 {
		ev.Communities = nil
	}
	return ev
}

// TestStreamMRTAllocations pins the decoder's allocation budget in a
// unit no machine changes. Once its buffers are warm, StreamMRT
// allocates, for each record that announces, one copy of the path and
// one of the community set, which that record's prefixes share, and
// nothing for a withdrawal. Each budget is the difference between a
// stream of one block of records and one of eleven, so the per-stream
// setup (the reader, its buffers, the first record's growth) cancels.
// The decoder that copied per prefix and allocated the UPDATE afresh
// per record measured 8.32 allocations per event on the yardstick feed.
func TestStreamMRTAllocations(t *testing.T) {
	perRecord := func(block []byte, records int) float64 {
		allocs := func(raw []byte) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := feed.StreamMRT(bytes.NewReader(raw), "mrt:feed", func(feed.Event) {}); err != nil {
					t.Fatal(err)
				}
			})
		}
		const extra = 10
		return (allocs(bytes.Repeat(block, 1+extra)) - allocs(block)) / extra / float64(records)
	}
	p := func(s string) netip.Prefix { return netip.MustParsePrefix(s) }
	announce := func(i int) *bgp.Update {
		return &bgp.Update{
			Attrs: bgp.PathAttributes{
				ASPath: bgp.ASPath{
					{Type: bgp.SegmentSequence, ASNs: []uint32{64500, 64500, 3320, uint32(1299 + i)}},
					{Type: bgp.SegmentSet, ASNs: []uint32{64600, 64601}},
				},
				NextHop:     netip.MustParseAddr("192.0.2.7"),
				Communities: bgp.NewCommunitySet(bgp.C(3320, uint16(i)), bgp.C(1299, 666), bgp.CommunityNoExport),
			},
			NLRI: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(i), 0}), 24)},
		}
	}
	var ann []*bgp.Update
	for i := 0; i < 8; i++ {
		ann = append(ann, announce(i))
	}
	two := announce(8)
	two.NLRI = append(two.NLRI, p("198.51.100.0/24"))
	ann = append(ann, two)
	wd := []*bgp.Update{
		{Withdrawn: []netip.Prefix{p("203.0.1.0/24")}},
		{Withdrawn: []netip.Prefix{p("203.0.2.0/24"), p("203.0.3.0/24")}},
		{Attrs: bgp.PathAttributes{MPUnreachNLRI: []netip.Prefix{p("2001:db8:1::/48")}}},
	}
	a, w := perRecord(mrtRecords(t, ann...), len(ann)), perRecord(mrtRecords(t, wd...), len(wd))
	t.Logf("%.2f allocations per announcing record, %.2f per withdrawal record", a, w)
	if a > 2 {
		t.Errorf("%.2f allocations per announcing record, want at most 2", a)
	}
	if w != 0 {
		t.Errorf("%.2f allocations per withdrawal record, want 0", w)
	}
}

// mrtRecords writes one BGP4MP record per UPDATE.
func mrtRecords(t testing.TB, updates ...*bgp.Update) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for i, u := range updates {
		err := w.Write(&mrt.BGP4MPMessage{
			Timestamp: time.Unix(1522540800+int64(i), 0).UTC(),
			PeerAS:    64500, LocalAS: 65000,
			PeerIP: netip.MustParseAddr("192.0.2.7"), LocalIP: netip.MustParseAddr("192.0.2.1"),
			Message: u,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTapWithdrawalCarriesNothing: Tap turns a nil route into a
// withdrawal with no path and no communities, copies an announcement's
// attributes rather than sharing the network's route, and dictionary
// inference folds nothing for the withdrawal on either of its ways in.
func TestTapWithdrawalCarriesNothing(t *testing.T) {
	p := netip.MustParsePrefix("198.51.100.0/24")
	var got []feed.Event
	tap := feed.Tap("sim", func(ev feed.Event) { got = append(got, ev) })
	rt := &policy.Route{Prefix: p, ASPath: bgp.Path(7, 3), Communities: bgp.NewCommunitySet(bgp.C(3, 100))}
	routes := router.NewRouteArena()
	ref := routes.Ref(routes.Add(rt))
	tap(7, 9, p, ref)
	tap(7, 9, p, simnet.RouteRef{})

	want := []feed.Event{
		{Source: "sim", PeerAS: 7, Prefix: p, ASPath: []uint32{7, 3}, Communities: bgp.NewCommunitySet(bgp.C(3, 100))},
		{Source: "sim", PeerAS: 7, Prefix: p, Withdraw: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tap emitted\n %+v\nwant\n %+v", got, want)
	}
	ref.Route().Communities[0] = bgp.C(3, 200) // the arena's canonical set
	if got[0].Communities[0] != bgp.C(3, 100) {
		t.Fatal("the announcement shares its community set with the network's route")
	}

	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	eng.Ingest(got[1])
	withdrawn := got[1]
	withdrawn.Seq = 1
	eng.NewPartial().Fold([]feed.Event{withdrawn})
	if st := eng.Stats(); st.Processed != 0 || st.Communities != 0 || st.Version != 0 {
		t.Fatalf("a withdrawal reached the dictionary: %+v", st)
	}
}

// churnMRT is the churn feed as the wire carries it: the first n BGP4MP
// records of the tiny world's busiest collector archive.
func churnMRT(t testing.TB, n int) []byte {
	t.Helper()
	var raw []byte
	for _, c := range collectors(t) {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > len(raw) {
			raw = buf.Bytes()
		}
	}
	// MRT common header: 12 bytes, body length in the last four.
	end := 0
	for i := 0; i < n; i++ {
		if end+12 > len(raw) {
			t.Fatalf("archive holds only %d records, want %d", i, n)
		}
		end += 12 + int(binary.BigEndian.Uint32(raw[end+8:]))
	}
	return raw[:end]
}

// streamPipe runs StreamMRT over a pipe wrapped by DrainReader, the way
// wormwatchd reads a feed connection. The returned wait closes the pipe
// and returns the delivered event count.
func streamPipe(t testing.TB, e *watch.Engine) (w *io.PipeWriter, wait func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := feed.StreamMRT(feed.DrainReader(pr, e.Dispatch), "mrt:feed", e.Ingest)
		done <- result{n, err}
	}()
	return pw, func() int {
		pw.Close()
		r := <-done
		if r.err != nil {
			t.Fatalf("stream: %v", r.err)
		}
		return r.n
	}
}

// TestStreamDispatchesWhenFeedDrains pins the latency floor away: one
// record on a connection that then goes quiet must be processed without
// a Flush, a heartbeat or 127 more events for its shard. Before the
// drain hook it sat in the engine's pending run for as long as the feed
// stayed quiet.
func TestStreamDispatchesWhenFeedDrains(t *testing.T) {
	raw := churnMRT(t, 1)
	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()
	pw, wait := streamPipe(t, e)
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Processed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("event still pending with the feed idle: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n := wait(); n < 1 {
		t.Fatalf("streamed %d events, want at least 1", n)
	}
}

// TestDrainDispatchUnobservable: a burst that arrives in one write is
// cut into runs wherever the decoder's buffer empties; the alert set
// must equal a plain StreamMRT of the same bytes.
func TestDrainDispatchUnobservable(t *testing.T) {
	raw := churnMRT(t, 300)
	ref := watch.NewEngine(watch.Config{Shards: 2})
	defer ref.Close()
	want, err := feed.StreamMRT(bytes.NewReader(raw), "mrt:feed", ref.Ingest)
	if err != nil {
		t.Fatal(err)
	}
	ref.Flush()

	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()
	pw, wait := streamPipe(t, e)
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if got := wait(); got != want {
		t.Fatalf("streamed %d events, plain ingest %d", got, want)
	}
	e.Flush()
	alerts := func(e *watch.Engine) []byte {
		b, err := json.Marshal(e.Alerts())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if got, want := alerts(e), alerts(ref); !bytes.Equal(got, want) {
		t.Fatalf("alert set differs from plain StreamMRT (%d vs %d bytes)", len(got), len(want))
	}
	if len(ref.Alerts()) == 0 {
		t.Fatal("feed raised no alerts; the comparison is vacuous")
	}
}
