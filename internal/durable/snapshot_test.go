package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// encodeCP is the canonical bytes of a checkpoint: the comparison form
// for engine states throughout these tests.
func encodeCP(t testing.TB, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stateBytes exports an engine pair and encodes it with the store-level
// fields zeroed, so two engines compare by state alone.
func stateBytes(t testing.TB, eng *watch.Engine, sem *semantics.Engine) []byte {
	t.Helper()
	cp := &Checkpoint{Watch: eng.ExportState()}
	if sem != nil {
		cp.Semantics = sem.ExportState()
	}
	return encodeCP(t, cp)
}

// sampleCheckpoint exercises every field and every format edge the WAL
// record tests demand: zero-time and prefix-less events, IPv6, the
// default route, an empty window, and absent optional strings.
func sampleCheckpoint() *Checkpoint {
	evs := sampleEvents()
	t0 := time.Date(2018, 4, 3, 12, 30, 0, 123456789, time.UTC)
	cp := &Checkpoint{
		Seq:     11,
		SavedAt: t0.Add(time.Hour),
		Watch: &watch.State{
			Seq: 11, AlertsTruncated: 1,
			Alerts: []watch.Alert{
				{Seq: 1, Time: t0, Detector: "blackhole-onset", Severity: watch.Critical, Prefix: evs[0].Prefix,
					PeerAS: 64512, Origin: 65001, Community: "3356:666", Source: "rrc00", Message: "onset"},
				{Seq: 9, Time: t0.Add(time.Second), Detector: "route-leak", Severity: watch.Info, Prefix: evs[2].Prefix, PeerAS: 65000, Message: "shift"},
				{Seq: 10, Detector: "community-squat", Severity: watch.Warning, PeerAS: 1, Source: "odd"},
			},
			ByDetector: map[string]uint64{"route-leak": 1, "blackhole-onset": 2, "community-squat": 1},
		},
		Semantics: &semantics.State{
			Seq: 11,
			Communities: []semantics.EvidenceState{
				{Community: bgp.C(2, 666), Count: 1, OffPath: 1, MaxTravel: -1, FirstSeq: 11, LastSeq: 11,
					Peers: []uint32{2}, Prefixes: []netip.Prefix{evs[4].Prefix}},
				{Community: bgp.C(3356, 666), Count: 5, OnPath: 4, OffPath: 1, AtOrigin: 1, HostRoute: 2, Prepended: 1,
					MaxTravel: 3, FirstSeq: 1, LastSeq: 9, FirstSeen: t0, LastSeen: t0.Add(time.Minute),
					Peers: []uint32{64512, 65000}, Prefixes: []netip.Prefix{evs[0].Prefix, evs[2].Prefix}},
			},
		},
	}
	st := cp.Watch
	st.AppendWindow(netip.Prefix{}, 1, evs[3:4]) // the prefix-less window
	st.AppendWindow(evs[4].Prefix, 1, evs[4:5])
	st.AppendWindow(evs[0].Prefix, 9, evs[0:2])
	st.AppendWindow(netip.MustParsePrefix("198.51.100.0/24"), 40, nil)
	st.AppendWindow(evs[2].Prefix, 1, evs[2:3])
	return cp
}

// TestCheckpointCodecRoundTrip: decode(encode(cp)) is cp — checked
// field by field where the edges are, and wholesale by re-encoding.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	enc := encodeCP(t, cp)
	got, err := decodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, got), enc) {
		t.Fatal("re-encoding the decoded checkpoint changed its bytes")
	}
	if got.Seq != cp.Seq || !got.SavedAt.Equal(cp.SavedAt) || got.Watch.AlertsTruncated != 1 {
		t.Fatalf("header drifted: %+v", got)
	}
	for i, w := range cp.Watch.Prefixes {
		g := got.Watch.Prefixes[i]
		if g.Prefix != w.Prefix || g.Total != w.Total || g.Len() != w.Len() {
			t.Fatalf("window %d: got %+v want %+v", i, g, w)
		}
		for j := 0; j < w.Len(); j++ {
			we, ge := w.At(j).FeedEvent(w.Prefix), g.At(j).FeedEvent(g.Prefix)
			if !eventsEqual(&we, &ge) {
				t.Fatalf("window %d event %d: got %+v want %+v", i, j, ge, we)
			}
			if we.Time.IsZero() != ge.Time.IsZero() {
				t.Fatalf("window %d event %d: zero time did not survive", i, j)
			}
		}
	}
	for i, a := range cp.Watch.Alerts {
		if g := got.Watch.Alerts[i]; g != a {
			t.Fatalf("alert %d: got %+v want %+v", i, g, a)
		}
	}
	if len(got.Watch.ByDetector) != 3 || got.Watch.ByDetector["blackhole-onset"] != 2 {
		t.Fatalf("by-detector totals drifted: %v", got.Watch.ByDetector)
	}
	if g := got.Semantics.Communities[0]; g.MaxTravel != -1 || !g.FirstSeen.IsZero() || g.Prefixes[0] != cp.Semantics.Communities[0].Prefixes[0] {
		t.Fatalf("evidence 0 drifted: %+v", g)
	}
	if g := got.Semantics.Communities[1]; len(g.Peers) != 2 || g.Peers[1] != 65000 || !g.LastSeen.Equal(cp.Semantics.Communities[1].LastSeen) {
		t.Fatalf("evidence 1 drifted: %+v", g)
	}

	// The derived slots. The sample's windows total 52 events against
	// a watermark of 11, as a resharded checkpoint's may: skipped reads
	// 0, not a wrapped difference. At watermark 60 it reads 8.
	for _, c := range []struct{ seq, skipped uint64 }{{11, 0}, {60, 8}} {
		r := &reader{data: encodeCP(t, &Checkpoint{Seq: c.seq, SavedAt: cp.SavedAt, Watch: cp.Watch})}
		header := []uint64{r.uvarint(), r.uvarint()}
		r.time()
		r.byte()
		for i := 0; i < 6; i++ {
			header = append(header, r.uvarint())
		}
		// seq, skipped; then watch seq, ingested, processed, reserved,
		// alerts raised (the by-detector sum), alerts truncated.
		if want := []uint64{c.seq, c.skipped, 11, 52, 52, 0, 4, 1}; !slices.Equal(header, want) {
			t.Fatalf("seq %d: header slots %v, want %v", c.seq, header, want)
		}
	}

	// Sections are optional, one by one.
	for _, part := range []*Checkpoint{{Seq: 3}, {Seq: 3, Watch: cp.Watch}, {Seq: 3, Semantics: cp.Semantics}} {
		got, err := decodeCheckpoint(encodeCP(t, part))
		if err != nil {
			t.Fatal(err)
		}
		if (got.Watch == nil) != (part.Watch == nil) || (got.Semantics == nil) != (part.Semantics == nil) {
			t.Fatalf("sections %v/%v decoded as %v/%v", part.Watch != nil, part.Semantics != nil, got.Watch != nil, got.Semantics != nil)
		}
	}
}

// TestCheckpointDecodeRejectsDamage walks every truncation point and a
// byte flip at every offset through the body decoder: truncations must
// error, flips must not panic (most land in-grammar).
func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	enc := encodeCP(t, sampleCheckpoint())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeCheckpoint(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, len(enc))
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x55
		_, _ = decodeCheckpoint(mut)
	}
	if _, err := decodeCheckpoint(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
	// A count no input of this size could hold is refused before
	// anything is allocated for it.
	huge := binary.AppendUvarint([]byte{0, 0, 0, sectionWatch, 0, 0, 0, 0, 0, 0}, 1<<40)
	if _, err := decodeCheckpoint(huge); err == nil {
		t.Fatal("2^40 declared windows decoded cleanly")
	}
}

// TestSnapshotFileDamage covers the file envelope: a truncated file and
// a flipped bit fail validation, and recovery falls back to the older
// checkpoint rather than giving up.
func TestSnapshotFileDamage(t *testing.T) {
	dir := t.TempDir()
	older := sampleCheckpoint()
	older.Seq = 5
	if _, err := writeSnapshot(dir, older); err != nil {
		t.Fatal(err)
	}
	newest, err := writeSnapshot(dir, sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	good, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := loadLatestSnapshot(dir); err != nil || cp.Seq != 11 {
		t.Fatalf("intact directory loaded %+v, %v", cp, err)
	}
	for name, damaged := range map[string][]byte{
		"truncated mid-body":  good[:len(good)/2],
		"truncated in header": good[:6],
		"bit flip":            append(append([]byte(nil), good[:40]...), append([]byte{good[40] ^ 1}, good[41:]...)...),
		"bad magic":           append([]byte("WWSNAPxx"), good[8:]...),
	} {
		if err := os.WriteFile(newest, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(newest); err == nil {
			t.Fatalf("%s: newest checkpoint still validates", name)
		}
		cp, err := loadLatestSnapshot(dir)
		if err != nil || cp == nil || cp.Seq != 5 {
			t.Fatalf("%s: fell back to %+v, %v; want the seq-5 checkpoint", name, cp, err)
		}
	}
}

// TestRetiredJSONCheckpointRefusedByName: a checkpoint left by a
// pre-WWSNAP02 binary is neither read nor walked past — its WAL has
// been truncated behind it — and the error names the file and the
// format, from Open and from Reshard alike.
func TestRetiredJSONCheckpointRefusedByName(t *testing.T) {
	dir := t.TempDir()
	older := sampleCheckpoint()
	older.Seq = 5
	if _, err := writeSnapshot(dir, older); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"seq":9,"saved_at":"2018-04-03T12:30:00Z"}`)
	old := append([]byte("WWSNAP01"), binary.BigEndian.AppendUint32(nil, crc32.Checksum(payload, crcTable))...)
	old = append(old, payload...)
	if err := os.WriteFile(filepath.Join(dir, snapName(9)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a WWSNAP01 directory", what)
		}
		for _, want := range []string{snapName(9), "WWSNAP01", "WWSNAP02"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %s", what, err, want)
			}
		}
	}
	_, err := loadLatestSnapshot(dir)
	refused("loadLatestSnapshot", err)
	eng, sem := newPair(2)
	defer eng.Close()
	defer sem.Close()
	_, _, err = Open(eng, sem, Options{Dir: dir, FsyncInterval: noSync})
	refused("Open", err)
	_, err = Reshard(ReshardOptions{
		SrcDirs: []string{dir}, DstDirs: []string{filepath.Join(t.TempDir(), "dst")},
		Owner: func(netip.Prefix) int { return 0 },
	})
	refused("Reshard", err)
}

// sizingState is a 1,000-prefix x 32-event engine state with the shape
// of the benchmark feed: full windows, 3-5 hop paths, 2-3 communities.
func sizingState(t testing.TB) *watch.State {
	t.Helper()
	eng := watch.NewEngine(watch.Config{Shards: 2})
	defer eng.Close()
	base := time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	for round := 0; round < 32; round++ {
		for i := 0; i < 1000; i++ {
			k := uint32(round*1000 + i)
			path := []uint32{64500 + k%7, 3356, 1299, 65000 + uint32(i)}
			if k%3 == 0 {
				path = append(path[:3:3], 2914, 65000+uint32(i))
			}
			comms := bgp.NewCommunitySet(bgp.C(3356, uint16(100+k%50)), bgp.C(1299, uint16(30+k%5)))
			if k%4 == 0 {
				comms = comms.AddAll(bgp.C(uint16(64500+k%7), 666))
			}
			eng.Ingest(feed.Event{
				Time:   base.Add(time.Duration(k) * time.Millisecond),
				Source: "mrt:feed", PeerAS: 64500 + k%7,
				Prefix:      netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
				ASPath:      path,
				Communities: comms,
			})
		}
	}
	return eng.ExportState()
}

// parentJSONCheckpointBytes is what the parent commit (207e2fd, the
// last to write WWSNAP01) produced for sizingState: 12 bytes of magic
// and CRC plus json.Marshal of the same Checkpoint.
const parentJSONCheckpointBytes = 5_995_411

// TestCheckpointSizeVsJSON is the machine-independent face of
// durable.snapshot_bytes: the binary checkpoint of a fixed state stays
// at or under a third of the JSON it replaced.
func TestCheckpointSizeVsJSON(t *testing.T) {
	st := sizingState(t)
	if len(st.Prefixes) != 1000 || st.Prefixes[0].Len() != 32 {
		t.Fatalf("sizing state is %d prefixes x %d events, want 1000 x 32", len(st.Prefixes), st.Prefixes[0].Len())
	}
	dir := t.TempDir()
	path, err := writeSnapshot(dir, &Checkpoint{Seq: st.Seq, SavedAt: time.Unix(1522540800, 0).UTC(), Watch: st})
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Size(); got*3 > parentJSONCheckpointBytes {
		t.Fatalf("checkpoint is %d bytes; the JSON it replaced was %d, and the bound is a third of that (%d)",
			got, parentJSONCheckpointBytes, parentJSONCheckpointBytes/3)
	}
}

// TestCheckpointFromBeforeTheInlineFoldRestores reads a WWSNAP02 file the
// parent of the inline-fold change wrote — when the dictionary engine
// still queued and shed on its own and saved ingested, processed and
// dropped counts apart — after events 1..240 of the churn feed. It must
// restore to the state of a control fed those events, and encode back to
// the bytes it was read from: the format did not move.
func TestCheckpointFromBeforeTheInlineFoldRestores(t *testing.T) {
	const seq = 240
	path := filepath.Join("testdata", "pr20", snapName(seq))
	cp, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != seq || cp.Watch == nil || cp.Semantics == nil || len(cp.Semantics.Communities) == 0 {
		t.Fatalf("%s: seq %d, watch %v, semantics %v", path, cp.Seq, cp.Watch != nil, cp.Semantics != nil)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if body := raw[len(snapMagic) : len(raw)-4]; !bytes.Equal(encodeCP(t, cp), body) {
		t.Fatal("re-encoding the decoded checkpoint does not give the file's body back")
	}

	re, reSem := newPair(4)
	defer re.Close()
	defer reSem.Close()
	if err := re.RestoreState(cp.Watch); err != nil {
		t.Fatal(err)
	}
	if err := reSem.RestoreState(cp.Semantics); err != nil {
		t.Fatal(err)
	}
	ctl, ctlSem := newPair(2)
	defer ctl.Close()
	defer ctlSem.Close()
	for _, ev := range churnEvents(t)[:seq] {
		ctl.Ingest(ev)
	}
	if !bytes.Equal(stateBytes(t, re, reSem), stateBytes(t, ctl, ctlSem)) {
		t.Fatalf("state restored from %s differs from a control fed events 1..%d", path, seq)
	}
}

// TestCheckpointDecodeAllocatesPerValue pins what decoding a checkpoint
// allocates for its windows: a few allocations per window and one copy
// per distinct path and community set, none per windowed event. Each
// window's paths and sets are decoded into one reused scratch buffer
// that AppendWindow copies only the values it lacks out of; 200
// windows of 32 events over 4 paths and 3 sets then decode in the
// allocations of 200 windows of one event each, plus the buffers'
// growth to one window's size (16 measured; the bound is 50), where an
// allocation per event's path and set would add 12,400.
func TestCheckpointDecodeAllocatesPerValue(t *testing.T) {
	const windows = 200
	t0 := time.Date(2018, 4, 3, 12, 0, 0, 0, time.UTC)
	encoded := func(perWindow int) []byte {
		st := &watch.State{Seq: windows * uint64(perWindow)}
		events := make([]feed.Event, perWindow)
		for i := 0; i < windows; i++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
			for j := range events {
				k := uint32(i*perWindow + j)
				events[j] = feed.Event{Seq: uint64(k + 1), Time: t0.Add(time.Duration(k) * time.Second), Source: "mrt:feed",
					PeerAS: 64500 + k%4, Prefix: p, ASPath: []uint32{64500 + k%4, 3356, 65001},
					Communities: bgp.NewCommunitySet(bgp.C(3356, uint16(k%3)), bgp.C(65001, 666))}
			}
			st.AppendWindow(p, uint64(perWindow), events)
		}
		return encodeCP(t, &Checkpoint{Seq: st.Seq, Watch: st})
	}
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeCheckpoint(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(encoded(1)), allocs(encoded(32))
	t.Logf("decode allocates %.0f times for %d windows of 1 event, %.0f for windows of 32", few, windows, many)
	if many > few+50 {
		t.Fatalf("decoding 32-event windows allocates %.0f times, 1-event windows %.0f: the difference grows with the events", many, few)
	}
}

// TestCheckpointOfAnExportOutlivesIdReuse pins that a checkpoint
// encoded from an export reads what the engine held at the export, the
// property the store relies on when it encodes outside its ingest
// fence: after the export, two full windows of new values overwrite
// every ring slot, so every path and community-set id the export names
// is released and reused for another value, and the export's JSON and
// checkpoint bytes must not move.
func TestCheckpointOfAnExportOutlivesIdReuse(t *testing.T) {
	const window = 4
	eng := watch.NewEngine(watch.Config{Shards: 1, WindowEvents: window})
	defer eng.Close()
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")}
	ingest := func(round int) {
		for i := 0; i < window; i++ {
			for j, p := range prefixes {
				k := uint32(100*round + 10*i + j)
				eng.Ingest(feed.Event{Prefix: p, PeerAS: 65000 + k, ASPath: []uint32{65000 + k, 3320},
					Communities: bgp.NewCommunitySet(bgp.C(3320, uint16(k)))})
			}
		}
		eng.Flush()
	}
	ingest(0)
	st := eng.ExportState()
	cp := &Checkpoint{Seq: st.Seq, Watch: st}
	wantCP := encodeCP(t, cp)
	wantJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	ingest(1)
	ingest(2)
	if got := encodeCP(t, cp); !bytes.Equal(got, wantCP) {
		t.Fatal("the checkpoint of an export changed after its ids were reused")
	}
	if got, err := json.Marshal(st); err != nil || !bytes.Equal(got, wantJSON) {
		t.Fatalf("the export's JSON changed after its ids were reused:\nat export: %s\nnow:       %s", wantJSON, got)
	}
}
