package semantics

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
)

func TestPathFacts(t *testing.T) {
	cases := []struct {
		name    string
		path    []uint32
		asn     uint32
		onPath  bool
		travel  int
		prepend bool
	}{
		{"empty", nil, 7, false, -1, false},
		{"absent", []uint32{1, 2, 3}, 7, false, -1, false},
		{"peer", []uint32{7, 2, 3}, 7, true, 0, false},
		{"origin", []uint32{1, 2, 7}, 7, true, 2, false},
		{"prepended", []uint32{1, 7, 7, 7, 3}, 7, true, 1, true},
		{"prepending-before", []uint32{1, 1, 1, 7, 3}, 7, true, 1, false},
		{"stripped-distance", []uint32{9, 9, 1, 7}, 7, true, 2, false},
	}
	for _, tc := range cases {
		on, travel, prep := pathFacts(tc.path, tc.asn)
		if on != tc.onPath || travel != tc.travel || prep != tc.prepend {
			t.Errorf("%s: pathFacts(%v, %d) = (%v, %d, %v), want (%v, %d, %v)",
				tc.name, tc.path, tc.asn, on, travel, prep, tc.onPath, tc.travel, tc.prepend)
		}
	}
}

func TestClassifyRules(t *testing.T) {
	ev := func(mut func(*evidence)) *evidence {
		e := newEvidence()
		e.count = 10
		mut(e)
		return e
	}
	cases := []struct {
		name string
		c    bgp.Community
		e    *evidence
		want Class
	}{
		{"well-known", bgp.CommunityNoExport, ev(func(e *evidence) { e.onPath = 10 }), ClassWellKnown},
		{"host-route-majority", bgp.C(9, 999), ev(func(e *evidence) { e.hostRoute = 6; e.onPath = 10 }), ClassActionBlackhole},
		{"value-pattern-666", bgp.C(9, 666), ev(func(e *evidence) { e.offPath = 10 }), ClassActionBlackhole},
		{"prepend-majority", bgp.C(9, 101), ev(func(e *evidence) { e.onPath = 6; e.prepended = 4; e.offPath = 4 }), ClassActionPrepend},
		{"steering-mixed", bgp.C(9, 70), ev(func(e *evidence) { e.onPath = 6; e.offPath = 4 }), ClassActionSteering},
		{"informational-on-path", bgp.C(9, 100), ev(func(e *evidence) { e.onPath = 10; e.atOrigin = 10 }), ClassInformational},
		{"off-path-only", bgp.C(9, 40001), ev(func(e *evidence) { e.offPath = 10 }), ClassUnknown},
	}
	for _, tc := range cases {
		if got := classify(tc.c, tc.e); got != tc.want {
			t.Errorf("%s: classify(%s) = %s, want %s", tc.name, tc.c, got, tc.want)
		}
	}
}

// synthFeed builds a deterministic observation mix exercising every
// classification rule: origin tags, ingress tags, a blackhole trigger
// on host routes, a prepend service, a steering request, a squat.
func synthFeed(n int) []feed.Event {
	obs := make([]feed.Event, 0, n)
	for i := 0; i < n; i++ {
		pfxIdx := i % 512
		peer := uint32(100 + i%11)
		mid := uint32(1000 + i%31)
		origin := uint32(10000 + pfxIdx)
		ob := feed.Event{
			PeerAS: peer,
			Prefix: netip.PrefixFrom(netx.V4(10, byte(pfxIdx>>8), byte(pfxIdx), 0), 24),
			ASPath: []uint32{peer, mid, origin},
		}
		switch i % 8 {
		case 0: // blackhole trigger on a host route
			ob.Prefix = netip.PrefixFrom(netx.V4(10, byte(pfxIdx>>8), byte(pfxIdx), 9), 32)
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 666))
		case 1: // prepend request, acted on (mid prepended)
			ob.ASPath = []uint32{peer, mid, mid, mid, origin}
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 103))
		case 2: // steering request still below its definer (off-path)
			ob.ASPath = []uint32{origin}
			ob.PeerAS = origin
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 70))
		case 3: // the same steering value past the definer (on-path)
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 70))
		case 4: // off-path-only private tag
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(64512+i%1023), 100))
		case 5: // well-known
			ob.Communities = bgp.NewCommunitySet(bgp.CommunityNoExport)
		default: // origin + ingress informational tags
			ob.Communities = bgp.NewCommunitySet(
				bgp.C(uint16(origin), 100), bgp.C(uint16(mid), 1000))
		}
		obs = append(obs, ob)
	}
	return obs
}

// TestSemanticsDeterminismAcrossWorkers is the engine's core contract,
// partition invariance: one stream cut into runs of shuffled length,
// dealt over 1, 3 and 8 partials and folded by one goroutine each, gives
// the Snapshot and the ExportState of a single Ingest loop — entries,
// evidence counters, classes, fan-out and fold count.
func TestSemanticsDeterminismAcrossWorkers(t *testing.T) {
	stream := synthFeed(20000)
	for i := range stream {
		// Partials take observations as stamped; the watch engine does this.
		stream[i].Seq = uint64(i + 1)
		stream[i].Time = feed.LogicalTime(0).Add(time.Duration(i) * time.Second)
	}
	view := func(e *Engine) (snap, state []byte) {
		t.Helper()
		s := e.Snapshot()
		if s.Observations != uint64(len(stream)) {
			t.Fatalf("snapshot counts %d observations, fed %d", s.Observations, len(stream))
		}
		snap, err := json.Marshal(s.Entries())
		if err != nil {
			t.Fatal(err)
		}
		state, err = json.Marshal(e.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return snap, state
	}
	ref := NewEngine(Config{})
	defer ref.Close()
	for i := range stream {
		ref.Ingest(stream[i])
	}
	wantSnap, wantState := view(ref)
	if ref.Snapshot().Len() == 0 {
		t.Fatal("empty dictionary")
	}
	for _, workers := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(workers)))
		runs := make([][][]feed.Event, workers)
		for at := 0; at < len(stream); {
			n := min(1+rng.Intn(300), len(stream)-at)
			w := rng.Intn(workers)
			runs[w] = append(runs[w], stream[at:at+n])
			at += n
		}
		e := NewEngine(Config{})
		var wg sync.WaitGroup
		for _, mine := range runs {
			p := e.NewPartial()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, run := range mine {
					p.Fold(run)
				}
			}()
		}
		e.Snapshot() // merges while the folds run
		wg.Wait()
		gotSnap, gotState := view(e)
		e.Close()
		if string(gotSnap) != string(wantSnap) {
			t.Fatalf("%d partials: snapshot differs from a single Ingest loop", workers)
		}
		if string(gotState) != string(wantState) {
			t.Fatalf("%d partials: exported state differs from a single Ingest loop", workers)
		}
	}
}

// TestEngineStartsNoGoroutine: the engine is data and a merge. Whoever
// feeds it brings the goroutine.
func TestEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(Config{})
	p := e.NewPartial()
	stream := synthFeed(64)
	e.Ingest(stream[0])
	p.Fold(stream[1:])
	e.Snapshot()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before NewEngine, %d with an engine in use", before, after)
	}
	e.Close()
}

// TestFoldAndIngestAfterClose: a closed engine drops what arrives and
// keeps serving the dictionary it had.
func TestFoldAndIngestAfterClose(t *testing.T) {
	e := NewEngine(Config{})
	p := e.NewPartial()
	stream := synthFeed(200)
	p.Fold(stream[:100])
	want := e.Snapshot()
	e.Close()
	e.Close() // idempotent
	p.Fold(stream[100:])
	e.Ingest(stream[100])
	if got := e.Snapshot(); got != want || e.Stats().Processed != want.Observations {
		t.Fatalf("closed engine folded: %d observations, had %d", e.Stats().Processed, want.Observations)
	}
}

// TestSynthFeedClasses pins the classifier's behavior on the synthetic
// mix end to end.
func TestSynthFeedClasses(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	for _, ob := range synthFeed(20000) {
		e.Ingest(ob)
	}
	snap := e.Snapshot()
	expect := map[bgp.Community]Class{
		bgp.C(1000, 666):      ClassActionBlackhole,
		bgp.C(1000, 103):      ClassActionPrepend,
		bgp.C(1000, 70):       ClassActionSteering,
		bgp.C(1000, 1000):     ClassInformational,
		bgp.C(10006, 100):     ClassInformational,
		bgp.CommunityNoExport: ClassWellKnown,
	}
	for c, want := range expect {
		entry, ok := snap.Lookup(c)
		if !ok {
			t.Fatalf("community %s not inferred", c)
		}
		if entry.Class != want {
			t.Errorf("community %s classified %s, want %s (evidence %+v)", c, entry.Class, want, entry)
		}
	}
	// Private tags stay unknown: off-path only.
	if entry, ok := snap.Lookup(bgp.C(64512, 100)); ok && entry.Class != ClassUnknown {
		t.Errorf("private tag classified %s, want unknown", entry.Class)
	}
	if snap.Version == 0 || snap.Observations == 0 {
		t.Fatalf("snapshot meta not populated: %+v", snap)
	}
	// The per-AS view is sorted and consistent with Lookup.
	for _, asn := range snap.ASNs() {
		es := snap.AS(asn)
		for i, en := range es {
			if en.Community.ASN() != asn {
				t.Fatalf("AS %d view holds %s", asn, en.Community)
			}
			if i > 0 && es[i-1].Community >= en.Community {
				t.Fatalf("AS %d view not sorted", asn)
			}
		}
	}
}

// TestScoreAgainst checks the precision/recall/class-accuracy math on a
// hand-built truth.
func TestScoreAgainst(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	for _, ob := range synthFeed(4000) {
		e.Ingest(ob)
	}
	snap := e.Snapshot()
	truth := make(Truth)
	for _, asn := range snap.ASNs() {
		for _, en := range snap.AS(asn) {
			truth.Add(en.Community, en.Class)
		}
	}
	sc := ScoreAgainst(snap, truth)
	if sc.Precision() != 1 || sc.Recall() != 1 || sc.ClassAccuracy() != 1 {
		t.Fatalf("self-score should be perfect: %+v", sc)
	}
	// A truth entry inference never saw lowers recall but not precision.
	truth.Add(bgp.C(42, 4242), ClassInformational)
	sc = ScoreAgainst(snap, truth)
	if sc.Recall() >= 1 || sc.Precision() != 1 {
		t.Fatalf("recall should drop, precision hold: %+v", sc)
	}
	// An inferred entry outside truth (a squat) lowers precision.
	delete(truth, bgp.C(42, 4242))
	victim := snap.Entries()[0].Community
	delete(truth, victim)
	sc = ScoreAgainst(snap, truth)
	if sc.Precision() >= 1 {
		t.Fatalf("precision should drop: %+v", sc)
	}
	if RenderScore(sc) == "" {
		t.Fatal("empty render")
	}
}

// TestTruthAddKeepsAction pins the action-over-informational rule.
func TestTruthAddKeepsAction(t *testing.T) {
	tr := make(Truth)
	c := bgp.C(9, 666)
	tr.Add(c, ClassActionBlackhole)
	tr.Add(c, ClassInformational)
	if tr[c] != ClassActionBlackhole {
		t.Fatalf("action downgraded to %s", tr[c])
	}
	if len(tr) != 1 {
		t.Fatalf("truth = %v", tr)
	}
}

// TestEnginePublishesSnapshot: the engine's dictionary, read through
// Lookup and Published, is the last snapshot taken. It is empty before
// the first Snapshot, and a fold stays invisible until the next one,
// which publishes a new community and a changed one alike.
func TestEnginePublishesSnapshot(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	ingest := func(c bgp.Community) {
		e.Ingest(feed.Event{
			PeerAS: 1, Prefix: netx.MustPrefix("10.0.0.0/24"),
			ASPath:      []uint32{1, 2},
			Communities: bgp.NewCommunitySet(c),
		})
	}
	first, later := bgp.C(2, 100), bgp.C(2, 200)
	ingest(first)
	if _, ok := e.Lookup(first); ok || e.Published() != nil {
		t.Fatal("a fold was visible before the first Snapshot")
	}
	snap := e.Snapshot()
	if e.Published() != snap {
		t.Fatal("Snapshot did not publish what it returned")
	}
	if _, ok := e.Lookup(first); !ok {
		t.Fatal("Lookup missed an entry of the published snapshot")
	}
	ingest(later)
	ingest(first)
	if _, ok := e.Lookup(later); ok {
		t.Fatal("a fold after the Snapshot was visible before the next one")
	}
	if e.Snapshot() == snap {
		t.Fatal("Snapshot reused a snapshot older than the last fold")
	}
	if _, ok := e.Lookup(later); !ok {
		t.Fatal("the next Snapshot did not publish the later fold")
	}
	if en, _ := e.Lookup(first); en.Count != 2 {
		t.Fatalf("the next Snapshot published %s seen %d times, folded twice", first, en.Count)
	}
}

// TestEnginePublicationConcurrent has readers consult the engine's
// dictionary while it folds and republishes, as the daemon's detectors
// do against its heartbeat; under -race it proves the lock-free read.
func TestEnginePublicationConcurrent(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	c := bgp.C(2, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := e.Published(); s != nil {
					if _, ok := e.Lookup(c); !ok {
						t.Error("a published snapshot lost its entry")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		e.Ingest(feed.Event{
			PeerAS: 1, Prefix: netx.MustPrefix("10.0.0.0/24"),
			ASPath:      []uint32{1, 2},
			Communities: bgp.NewCommunitySet(c, bgp.C(2, uint16(i))),
		})
		if i%50 == 0 {
			e.Snapshot()
		}
	}
	close(stop)
	wg.Wait()
}
