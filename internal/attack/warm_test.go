package attack

// Scenario-level warm-world equivalence: running any registered
// scenario on a fork of a frozen snapshot must be indistinguishable —
// bit for bit — from running it on a world built from scratch. The
// observables compared are everything a harness can see: the scenario
// Result (JSON), the full update tap stream (world construction
// included, since the warm path replays it), the collector MRT
// archives, every router's final RIB, and the watch/semantics
// evaluation reports built on top.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/policy"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
	"bgpworms/internal/watch"
)

// warmCombos is the engine × worker matrix the equivalence claim
// covers: the one engine under 1/4/16 engine workers.
var warmCombos = []struct {
	engine  string
	workers int
}{
	{"delta", 1}, {"delta", 4}, {"delta", 16},
}

// scenarioObservable collapses everything one scenario run exposes.
type scenarioObservable struct {
	result   []byte
	taps     tapLog
	archives []byte
	ribs     string
}

// tapLog is a run's update stream in a fixed binary encoding, one record
// per delivery: from, to and prefix, then a withdrawal mark or every
// field Route.String prints — prefix, next hop, AS path, local pref,
// communities, blackhole — in that order. ends[i] is where record i
// ends. Encoding is cheap where formatting every delivery is not, and
// only a record that differs is ever formatted.
type tapLog struct {
	buf  []byte
	ends []int
}

func (l *tapLog) record(from, to topo.ASN, prefix netip.Prefix, ref simnet.RouteRef) {
	b := binary.AppendUvarint(l.buf, uint64(from))
	b = binary.AppendUvarint(b, uint64(to))
	b = appendPrefix(b, prefix)
	if !ref.Valid() {
		b = append(b, 0)
	} else {
		rt := ref.Route()
		b = append(b, 1)
		b = appendPrefix(b, rt.Prefix)
		b = binary.AppendUvarint(b, uint64(rt.NextHopAS))
		b = binary.AppendUvarint(b, uint64(len(rt.ASPath)))
		for _, seg := range rt.ASPath {
			b = append(b, byte(seg.Type))
			b = binary.AppendUvarint(b, uint64(len(seg.ASNs)))
			for _, a := range seg.ASNs {
				b = binary.AppendUvarint(b, uint64(a))
			}
		}
		b = binary.AppendUvarint(b, uint64(rt.LocalPref))
		b = binary.AppendUvarint(b, uint64(len(rt.Communities)))
		for _, c := range rt.Communities {
			b = binary.AppendUvarint(b, uint64(c))
		}
		if rt.Blackhole {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	l.buf, l.ends = b, append(l.ends, len(b))
}

func appendPrefix(b []byte, p netip.Prefix) []byte {
	a := p.Addr().AsSlice()
	b = append(b, byte(p.Bits()+1), byte(len(a)))
	return append(b, a...)
}

// diff names the first delivery where o differs from l, formatting only
// that record of each; empty means bit-identical streams.
func (l *tapLog) diff(o *tapLog) string {
	if bytes.Equal(l.buf, o.buf) {
		return ""
	}
	start := 0 // every earlier record is equal, so both start here
	for i := 0; ; i++ {
		if i == len(l.ends) || i == len(o.ends) {
			return fmt.Sprintf("after %d equal deliveries, %d against %d", i, len(l.ends), len(o.ends))
		}
		a, b := l.buf[start:l.ends[i]], o.buf[start:o.ends[i]]
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("at delivery %d:\n  %s\n  %s", i, formatTap(a), formatTap(b))
		}
		start = l.ends[i]
	}
}

// formatTap renders one tapLog record as text.
func formatTap(rec []byte) string {
	num := func() uint64 {
		v, n := binary.Uvarint(rec)
		rec = rec[n:]
		return v
	}
	octet := func() byte {
		v := rec[0]
		rec = rec[1:]
		return v
	}
	prefix := func() netip.Prefix {
		bits, n := int(octet())-1, int(octet())
		a, _ := netip.AddrFromSlice(rec[:n])
		rec = rec[n:]
		return netip.PrefixFrom(a, bits)
	}
	from, to, p := num(), num(), prefix()
	if octet() == 0 {
		return fmt.Sprintf("%d>%d %s withdraw", from, to, p)
	}
	rt := policy.Route{Prefix: prefix(), NextHopAS: topo.ASN(num())}
	for n := num(); n > 0; n-- {
		seg := bgp.PathSegment{Type: bgp.SegmentType(octet())}
		for k := num(); k > 0; k-- {
			seg.ASNs = append(seg.ASNs, uint32(num()))
		}
		rt.ASPath = append(rt.ASPath, seg)
	}
	rt.LocalPref = uint32(num())
	for n := num(); n > 0; n-- {
		rt.Communities = append(rt.Communities, bgp.Community(num()))
	}
	rt.Blackhole = octet() == 1
	return fmt.Sprintf("%d>%d %s %s", from, to, p, &rt)
}

func warmContext(t *testing.T, name, scale, engine string, workers int) *scenario.Context {
	t.Helper()
	ctx, err := scenario.ContextFor(scenario.Cell{
		Scenario: name, Scale: scale, Seed: 1,
		EngineWorkers: workers,
	})
	if err != nil {
		t.Fatalf("%s: context: %v", name, err)
	}
	ctx.Gen.Engine = engine
	return ctx
}

// runObservable executes the scenario (warm when snap is non-nil,
// scratch otherwise) and collapses its observables, the update stream
// only when tapped. Tap events are encoded as they arrive.
func runObservable(t *testing.T, name string, ctx *scenario.Context, snap *gen.Snapshot, tapped bool) *scenarioObservable {
	t.Helper()
	out := &scenarioObservable{}
	if tapped {
		ctx.Tap = out.taps.record
	}
	var worlds []*gen.Internet
	ctx.World = func(w *gen.Internet) { worlds = append(worlds, w) }
	ctx.Warm = snap
	res, err := scenario.Run(name, ctx)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if out.result, err = json.Marshal(res); err != nil {
		t.Fatalf("%s: marshal result: %v", name, err)
	}
	var arch bytes.Buffer
	var ribs strings.Builder
	for _, w := range worlds {
		for _, c := range w.Collectors {
			if _, err := c.WriteUpdatesMRT(&arch); err != nil {
				t.Fatalf("%s: updates MRT: %v", name, err)
			}
			if _, err := c.WriteRIBSnapshotMRT(&arch, w.Net, gen.BaseTime.AddDate(0, 1, 0)); err != nil {
				t.Fatalf("%s: RIB MRT: %v", name, err)
			}
		}
		for _, asn := range w.Net.ASes() {
			r := w.Net.Router(asn)
			for _, rt := range r.RIB() {
				fmt.Fprintf(&ribs, "AS%d %s\n", asn, rt)
			}
		}
	}
	out.archives = arch.Bytes()
	out.ribs = ribs.String()
	return out
}

// diffObservable names the first observable where warm and cold
// diverge; empty means bit-identical.
func diffObservable(cold, warm *scenarioObservable) string {
	if !bytes.Equal(warm.result, cold.result) {
		return fmt.Sprintf("Result JSON diverges:\nwarm: %s\ncold: %s", warm.result, cold.result)
	}
	if msg := cold.taps.diff(&warm.taps); msg != "" {
		return "tap streams diverge (cold, then warm) " + msg
	}
	if !bytes.Equal(warm.archives, cold.archives) {
		return "collector MRT archives diverge"
	}
	if warm.ribs != cold.ribs {
		return "final RIBs diverge"
	}
	return ""
}

// forkableScenarios lists every registered scenario that runs on a
// harness-provided world (scenarios managing their own worlds never
// fork a snapshot, so the warm path does not exist for them).
func forkableScenarios(t *testing.T) []string {
	t.Helper()
	var out []string
	managed := 0
	for _, name := range scenario.Names() {
		s, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("registry lists unknown scenario %q", name)
		}
		if s.ManagesWorlds {
			managed++
			continue
		}
		out = append(out, name)
	}
	if managed == 0 {
		t.Fatal("expected at least one ManagesWorlds scenario (hygiene-filtering) to exercise the skip path")
	}
	return out
}

// checkScenarioMatrix runs every forkable scenario cold and warm over
// the given combos on one scale, sharing one frozen snapshot per combo
// across scenarios — exactly the reuse pattern the sweep and suite
// harnesses rely on. Each combo freezes twice: a recording snapshot
// whose tapped forks must match the cold run stream included (the
// suite's path), and a stream-free one whose untapped forks must match
// it on everything else (the sweep's path). The combos run as parallel
// subtests: each builds its own snapshots and its own cold worlds and
// shares nothing.
func checkScenarioMatrix(t *testing.T, scale string, combos []struct {
	engine  string
	workers int
}) {
	t.Helper()
	names := forkableScenarios(t)
	for _, v := range combos {
		v := v
		t.Run(fmt.Sprintf("%s/%s/w%d", scale, v.engine, v.workers), func(t *testing.T) {
			t.Parallel()
			base := warmContext(t, names[0], scale, v.engine, v.workers)
			snap, err := gen.BuildSnapshotForReplay(base.Gen)
			if err != nil {
				t.Fatalf("freeze %s/%s/%d: %v", scale, v.engine, v.workers, err)
			}
			bare, err := gen.BuildSnapshot(base.Gen)
			if err != nil {
				t.Fatalf("freeze %s/%s/%d stream-free: %v", scale, v.engine, v.workers, err)
			}
			for _, name := range names {
				cold := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), nil, true)
				warm := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), snap, true)
				if msg := diffObservable(cold, warm); msg != "" {
					t.Errorf("%s on %s/%s/%d: %s", name, scale, v.engine, v.workers, msg)
				}
				untapped := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), bare, false)
				cold.taps = tapLog{}
				if msg := diffObservable(cold, untapped); msg != "" {
					t.Errorf("%s untapped on %s/%s/%d: %s", name, scale, v.engine, v.workers, msg)
				}
			}
		})
	}
}

// TestWarmScenarioEquivalence is the tiny-scale matrix: all worker
// counts (1 and 4 in -short mode).
func TestWarmScenarioEquivalence(t *testing.T) {
	combos := warmCombos
	if testing.Short() {
		combos = combos[:2]
	}
	checkScenarioMatrix(t, "tiny", combos)
}

// TestWarmScenarioEquivalenceSmall covers the small preset on the
// delta engine across worker counts (the full matrix runs on tiny;
// small guards against tiny-only coincidences).
func TestWarmScenarioEquivalenceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale warm equivalence skipped in -short mode")
	}
	checkScenarioMatrix(t, "small", []struct {
		engine  string
		workers int
	}{
		{"delta", 1}, {"delta", 4}, {"delta", 16},
	})
}

// TestWarmEvalScenarioEquivalence runs the watch evaluation loop —
// the engine tap, detector replay, and scoring — warm and cold per
// scenario and requires byte-identical reports. This is the suite
// harness's exact code path.
func TestWarmEvalScenarioEquivalence(t *testing.T) {
	base := warmContext(t, "rtbh", "tiny", "delta", 1)
	snap, err := gen.BuildSnapshotForReplay(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range forkableScenarios(t) {
		cold, err := watch.EvalScenario(name, warmContext(t, name, "tiny", "delta", 1), watch.Config{Shards: 2})
		if err != nil {
			t.Fatalf("%s: cold eval: %v", name, err)
		}
		wctx := warmContext(t, name, "tiny", "delta", 1)
		wctx.Warm = snap
		warm, err := watch.EvalScenario(name, wctx, watch.Config{Shards: 2})
		if err != nil {
			t.Fatalf("%s: warm eval: %v", name, err)
		}
		cj, _ := json.Marshal(cold)
		wj, _ := json.Marshal(warm)
		if !bytes.Equal(cj, wj) {
			t.Errorf("%s: warm EvalScenario report diverges from cold:\nwarm: %s\ncold: %s", name, wj, cj)
		}
	}
}

// TestWarmDictEvalEquivalence runs the evaluation with dictionary
// inference folded on the replay, warm and cold, for the scenario that
// attacks the dictionary itself: the reports (score included) and the
// inferred dictionaries must be identical.
func TestWarmDictEvalEquivalence(t *testing.T) {
	const name = "dictionary-poisoning"
	base := warmContext(t, name, "tiny", "delta", 1)
	snap, err := gen.BuildSnapshotForReplay(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(ctx *scenario.Context) ([]byte, []byte) {
		sem := semantics.NewEngine(semantics.Config{})
		defer sem.Close()
		rep, err := watch.EvalScenario(name, ctx, watch.Config{Shards: 2, Semantics: sem})
		if err != nil {
			t.Fatalf("dict eval: %v", err)
		}
		rj, _ := json.Marshal(rep)
		ej, _ := json.Marshal(rep.Dict.Snapshot.Entries())
		return rj, ej
	}
	cold, coldDict := eval(warmContext(t, name, "tiny", "delta", 1))
	wctx := warmContext(t, name, "tiny", "delta", 1)
	wctx.Warm = snap
	warm, warmDict := eval(wctx)
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm dictionary eval report diverges from cold:\nwarm: %s\ncold: %s", warm, cold)
	}
	if !bytes.Equal(coldDict, warmDict) {
		t.Error("warm replay inferred a different dictionary than cold")
	}
}

// TestWarmIncompatibleSnapshotIsLoud pins the failure mode: a warm
// snapshot built for different generator parameters must error, never
// silently rebuild.
func TestWarmIncompatibleSnapshotIsLoud(t *testing.T) {
	base := warmContext(t, "rtbh", "tiny", "delta", 1)
	snap, err := gen.BuildSnapshot(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	ctx := warmContext(t, "rtbh", "tiny", "delta", 1)
	ctx.Gen.Seed++
	ctx.Warm = snap
	if _, err := scenario.Run("rtbh", ctx); err == nil {
		t.Fatal("mismatched warm snapshot accepted silently")
	}
}
