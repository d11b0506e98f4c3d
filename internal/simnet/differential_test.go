package simnet_test

// The differential property tests: on random worlds the delta engine
// at 1/4/16 workers must deliver exactly what the spec oracle
// (spec_test.go) delivers and end with its tables, and a warm fork must
// be indistinguishable from a scratch build. On failure the harness
// shrinks the world — halving each topology/churn dimension while the
// failure reproduces — and reports the minimal failing configuration,
// which is the one worth debugging.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// worldCfg is a shrinkable world recipe.
type worldCfg struct {
	Tier1, Mid, Stubs int
	Churn, RTBH       int
	Seed              int64
}

func (c worldCfg) String() string {
	return fmt.Sprintf("tier1=%d mid=%d stubs=%d churn=%d rtbh=%d seed=%d",
		c.Tier1, c.Mid, c.Stubs, c.Churn, c.RTBH, c.Seed)
}

func (c worldCfg) params() gen.Params {
	p := gen.Tiny()
	p.Tier1, p.Mid, p.Stubs = c.Tier1, c.Mid, c.Stubs
	p.ChurnEvents, p.RTBHEvents = c.Churn, c.RTBH
	p.Seed = c.Seed
	return p
}

// randomCfg draws a random small world; sizes stay in the range where a
// full build takes tens of milliseconds, so the property test can
// afford several configurations per run.
func randomCfg(rng *rand.Rand) worldCfg {
	return worldCfg{
		Tier1: 2 + rng.Intn(3),
		Mid:   4 + rng.Intn(12),
		Stubs: 10 + rng.Intn(50),
		Churn: 5 + rng.Intn(15),
		RTBH:  rng.Intn(4),
		Seed:  int64(1 + rng.Intn(1000)),
	}
}

// The canonical presets as shrinkable recipes.
var (
	tinyCfg  = worldCfg{Tier1: 3, Mid: 10, Stubs: 40, Churn: 25, RTBH: 4, Seed: 1}    // == gen.Tiny()
	smallCfg = worldCfg{Tier1: 5, Mid: 40, Stubs: 200, Churn: 120, RTBH: 12, Seed: 1} // == gen.Small()
)

// outcome captures everything a warm fork and a scratch build, or two
// worker counts, must agree on.
type outcome struct {
	steps    int
	archives []byte
	ribs     string
}

// diverges describes the first observable on which o differs from ref
// ("" when they agree).
func (o *outcome) diverges(ref *outcome) string {
	switch {
	case o.steps != ref.steps:
		return fmt.Sprintf("deliveries %d != %d", o.steps, ref.steps)
	case !bytes.Equal(o.archives, ref.archives):
		return "collector archives diverge"
	case o.ribs != ref.ribs:
		return "RIBs diverge"
	}
	return ""
}

// buildOutcome builds the world at workers and collapses its
// observable state.
func buildOutcome(t *testing.T, cfg worldCfg, workers int) (*outcome, error) {
	t.Helper()
	p := cfg.params()
	p.Workers = workers
	w, err := gen.Build(p)
	if err != nil {
		return nil, err
	}
	return perturbAndCollapse(w)
}

// buildWarmOutcome builds the same world warm: freeze right after
// construction, fork, and run the identical perturbation on the fork.
// Its outcome must be bit-identical to buildOutcome's for every worker
// count — the copy-on-write equivalence the snapshot layer promises.
func buildWarmOutcome(t *testing.T, cfg worldCfg, workers int) (*outcome, error) {
	t.Helper()
	p := cfg.params()
	p.Workers = workers
	snap, err := gen.BuildSnapshot(p)
	if err != nil {
		return nil, err
	}
	w, err := snap.Fork(nil)
	if err != nil {
		return nil, err
	}
	return perturbAndCollapse(w)
}

// lateSession gives the first originating stub a second provider after
// the world has converged and re-announces its first prefix across the
// new session. Every other session in a generated world is wired before
// the first Run, so this is the step that makes the delta engine refresh
// the per-neighbor export hints it caches against
// Router.NeighborVersion.
func lateSession(w *gen.Internet) error {
	for _, stub := range w.StubASes() {
		if len(w.Origins[stub]) == 0 {
			continue
		}
		has := map[topo.ASN]bool{}
		for _, nb := range w.Net.Router(stub).Neighbors() {
			has[nb] = true
		}
		for _, transit := range w.TransitASes() {
			if has[transit] {
				continue
			}
			if err := w.Net.Connect(stub, transit, topo.RelProvider); err != nil {
				return err
			}
			p := w.Origins[stub][0]
			if _, err := w.Net.Withdraw(stub, p); err != nil {
				return err
			}
			_, err := w.Net.Announce(stub, p)
			return err
		}
	}
	return fmt.Errorf("no stub with a prefix and a transit it is not yet connected to")
}

// perturbAndCollapse runs the churn month and a late session change,
// then collapses the observable state: delivery count, collector
// archives (updates + RIB dumps), and every router's converged RIB.
func perturbAndCollapse(w *gen.Internet) (*outcome, error) {
	if _, err := w.RunChurn(); err != nil {
		return nil, err
	}
	if err := lateSession(w); err != nil {
		return nil, err
	}
	var arch bytes.Buffer
	for _, c := range w.Collectors {
		if _, err := c.WriteUpdatesMRT(&arch); err != nil {
			return nil, err
		}
		if _, err := c.WriteRIBSnapshotMRT(&arch, w.Net, gen.BaseTime.AddDate(0, 1, 0)); err != nil {
			return nil, err
		}
	}
	var ribs strings.Builder
	for _, asn := range w.Net.ASes() {
		r := w.Net.Router(asn)
		for _, rt := range r.RIB() {
			fmt.Fprintf(&ribs, "AS%d %s\n", asn, rt)
		}
	}
	return &outcome{steps: w.Net.Steps(), archives: arch.Bytes(), ribs: ribs.String()}, nil
}

// specOutcome is everything the delta engine must agree with the spec
// oracle on: every call of a tap with each op's end (OnOp) in its place,
// the deliveries each op caused, and every AS's final Loc-RIB and
// Adj-RIB-In.
type specOutcome struct {
	taps       []tapCall
	counts     []int
	loc, adjIn []string
	// rejected holds, per op, the candidates the spec's rejected updates
	// withdrew (RFC 4271's implicit withdraw).
	rejected [][]string
}

// diverges describes the first observable on which o departs from the
// spec's want ("" when they agree), the final tables first, and returns
// the first op whose deliveries differ (-1 when they all agree).
func (o *specOutcome) diverges(want *specOutcome) (string, int) {
	op := -1
	for i, c := range want.taps {
		if i >= len(o.taps) || !o.taps[i].same(c) {
			op = 0
			for _, c := range want.taps[:i] {
				if c.end > 0 {
					op = c.end
				}
			}
			break
		}
	}
	if op < 0 && len(o.taps) > len(want.taps) {
		op = len(want.counts)
	}
	if msg := tableDiff("final Adj-RIB-In", o.adjIn, want.adjIn); msg != "" {
		return msg, op
	}
	if msg := tableDiff("final Loc-RIB", o.loc, want.loc); msg != "" {
		return msg, op
	}
	if !slices.Equal(o.counts, want.counts) {
		i := 0
		for i < min(len(o.counts), len(want.counts)) && o.counts[i] == want.counts[i] {
			i++
		}
		return fmt.Sprintf("op %d: %v deliveries, the spec %v", i, o.counts[i:min(i+1, len(o.counts))], want.counts[i:min(i+1, len(want.counts))]), op
	}
	return streamDiff(o.taps, want.taps), op
}

// specPlan is a planned world, its ops and the late session its runs
// end with: an originating stub gains a transit provider after the
// world has converged and re-announces its first prefix across it,
// which makes the delta engine refresh the export hints it caches
// against Router.NeighborVersion.
type specPlan struct {
	plan          *gen.ArchivePlan
	planOps       []simnet.Op
	stub, transit topo.ASN
	lateP         netip.Prefix
}

func newSpecPlan(cfg worldCfg) (*specPlan, error) {
	plan, err := gen.PlanArchives(cfg.params())
	if err != nil {
		return nil, err
	}
	n, ops, err := plan.Fork()
	if err != nil {
		return nil, err
	}
	sp := &specPlan{plan: plan, planOps: ops}
	first := map[topo.ASN]netip.Prefix{}
	var stubs []topo.ASN
	for _, op := range ops {
		if _, seen := first[op.AS]; !seen && !op.Withdraw && n.Graph.IsStub(op.AS) && len(n.Graph.Neighbors(op.AS)) > 0 {
			first[op.AS] = op.Prefix
			stubs = append(stubs, op.AS)
		}
	}
	slices.Sort(stubs)
	for _, stub := range stubs {
		for _, transit := range n.Graph.ASes() {
			if n.Graph.IsTransit(transit) && !slices.Contains(n.Router(stub).Neighbors(), transit) {
				sp.stub, sp.transit, sp.lateP = stub, transit, first[stub]
				return sp, nil
			}
		}
	}
	return nil, fmt.Errorf("no stub with a prefix and a transit it is not yet connected to")
}

// ops is the run's op list: the plan's, then the late session's
// withdrawal and re-announcement, the session wired between the two
// lists.
func (sp *specPlan) ops() []simnet.Op {
	return append(slices.Clip(sp.planOps), simnet.Op{AS: sp.stub, Prefix: sp.lateP, Withdraw: true}, simnet.Op{AS: sp.stub, Prefix: sp.lateP})
}

// observedBy keeps only the tap calls a tap scoped to the receivers in
// to would make, and every op end.
func (o *specOutcome) observedBy(to []topo.ASN) *specOutcome {
	scoped := *o
	scoped.taps = nil
	for _, c := range o.taps {
		if c.end > 0 || slices.Contains(to, c.to) {
			scoped.taps = append(scoped.taps, c)
		}
	}
	return &scoped
}

// specRun converges the first k of sp's ops under the spec oracle.
func specRun(sp *specPlan, k int) (*specOutcome, error) {
	n, _, err := sp.plan.Fork()
	if err != nil {
		return nil, err
	}
	s := readSpecWorld(n)
	o := &specOutcome{}
	for i, op := range sp.ops()[:k] {
		if i == len(sp.planOps) {
			s.connect(sp.stub, sp.transit, topo.RelProvider)
		}
		ds := s.apply(op)
		o.counts = append(o.counts, len(ds))
		o.rejected = append(o.rejected, slices.Clone(s.rejected))
		for _, d := range ds {
			o.taps = append(o.taps, tapCall{from: d.from, to: d.to, p: d.p, rt: d.rt})
		}
		o.taps = append(o.taps, tapCall{end: i + 1})
	}
	o.loc, o.adjIn = s.tables()
	return o, nil
}

// deltaRun converges the first k of sp's ops with the delta engine at
// workers, the plan's ops in one Apply and the late session's in
// another. Its tap observes the receivers in to, or with to empty the
// whole world.
func deltaRun(sp *specPlan, k, workers int, to ...topo.ASN) (*specOutcome, error) {
	n, _, err := sp.plan.Fork()
	if err != nil {
		return nil, err
	}
	n.SetWorkers(workers)
	o := &specOutcome{}
	n.Tap(func(from, to topo.ASN, p netip.Prefix, ref simnet.RouteRef) {
		var rt *policy.Route
		if ref.Valid() {
			v := ref.Route()
			rt = &v
		}
		o.taps = append(o.taps, tapCall{from: from, to: to, p: p, rt: rt})
	}, to...)
	ops, cut := sp.ops()[:k], min(k, len(sp.planOps))
	base := 0
	n.OnOp(func(i int) { o.taps = append(o.taps, tapCall{end: base + i + 1}) })
	if o.counts, err = n.Apply(ops[:cut]...); err != nil {
		return nil, err
	}
	if k > cut {
		if err := n.Connect(sp.stub, sp.transit, topo.RelProvider); err != nil {
			return nil, err
		}
		base = cut
		late, err := n.Apply(ops[cut:]...)
		if err != nil {
			return nil, err
		}
		o.counts = append(o.counts, late...)
	}
	o.loc, o.adjIn = networkTables(n)
	return o, nil
}

// checkCfg reports a non-empty divergence description if the delta
// engine at 1, 4 or 16 workers departs from the spec oracle on cfg. At
// one worker a whole-world tap observes; at 4 and 16, only a tap
// scoped to the plan's collectors, which must see exactly the spec's
// deliveries to them.
// When the deliveries depart, it names the candidates the spec withdrew
// on rejected updates in the last op on the same prefix that had any, up
// to the one they depart on: an engine that keeps one of them stale
// sends differently from there.
func checkCfg(t *testing.T, cfg worldCfg) string {
	t.Helper()
	sp, err := newSpecPlan(cfg)
	if err != nil {
		return "plan error: " + err.Error()
	}
	all := len(sp.ops())
	want, err := specRun(sp, all)
	if err != nil {
		return "spec error: " + err.Error()
	}
	if len(want.taps) == len(want.counts) {
		return "the spec delivered nothing"
	}
	var collectors []topo.ASN
	for _, c := range sp.plan.Collectors {
		collectors = append(collectors, c.ASN)
	}
	for _, workers := range []int{1, 4, 16} {
		var to []topo.ASN
		ref := want
		if workers > 1 {
			to, ref = collectors, want.observedBy(collectors)
		}
		got, err := deltaRun(sp, all, workers, to...)
		if err != nil {
			return fmt.Sprintf("delta/%d error: %v", workers, err)
		}
		msg, op := got.diverges(ref)
		if msg == "" {
			continue
		}
		msg = fmt.Sprintf("delta/%d vs the spec: %s", workers, msg)
		ops := sp.ops()
		for j := min(op, all-1); op >= 0 && j >= 0; j-- {
			if ops[j].Prefix.Masked() == ops[op].Prefix.Masked() && len(want.rejected[j]) > 0 {
				msg += fmt.Sprintf("; in op %d %v the spec's rejected updates withdrew %s", j, ops[j], strings.Join(want.rejected[j], ", "))
				break
			}
		}
		return msg
	}
	return ""
}

// shrink halves one dimension at a time while the failure (under check)
// reproduces, returning the smallest still-failing configuration and its
// failure.
func shrink(t *testing.T, cfg worldCfg, failure string, check func(*testing.T, worldCfg) string) (worldCfg, string) {
	t.Helper()
	for improved := true; improved; {
		improved = false
		for _, cand := range shrinkSteps(cfg) {
			if msg := check(t, cand); msg != "" {
				cfg, failure = cand, msg
				improved = true
				break
			}
		}
	}
	return cfg, failure
}

func shrinkSteps(c worldCfg) []worldCfg {
	var out []worldCfg
	add := func(n worldCfg) {
		if n != c {
			out = append(out, n)
		}
	}
	half := func(v, min int) int {
		if v/2 < min {
			return min
		}
		return v / 2
	}
	n := c
	n.Stubs = half(c.Stubs, 2)
	add(n)
	n = c
	n.Mid = half(c.Mid, 2)
	add(n)
	n = c
	n.Tier1 = half(c.Tier1, 1)
	add(n)
	n = c
	n.Churn = half(c.Churn, 0)
	add(n)
	n = c
	n.RTBH = half(c.RTBH, 0)
	add(n)
	return out
}

// TestDifferentialEngines is the randomized engine-vs-spec check with
// shrinking. The plan's origin announcements and churn month go to
// Apply as one op list, which the engine converges in batched windows,
// while the spec oracle converges one op at a time.
func TestDifferentialEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(20180401))
	configs := 4
	if testing.Short() {
		configs = 1
	}
	for i := 0; i < configs; i++ {
		cfg := randomCfg(rng)
		if msg := checkCfg(t, cfg); msg != "" {
			min, minMsg := shrink(t, cfg, msg, checkCfg)
			t.Fatalf("engines diverge on {%s}: %s\nminimal failing config: {%s}: %s",
				cfg, msg, min, minMsg)
		}
	}
}

// checkWarmCfg reports a non-empty divergence description if a warm
// fork-then-perturb world differs from the scratch build anywhere: any
// worker count, any observable (delivery count, collector archives,
// converged RIBs).
func checkWarmCfg(t *testing.T, cfg worldCfg) string {
	t.Helper()
	for _, workers := range []int{1, 4, 16} {
		cold, err := buildOutcome(t, cfg, workers)
		if err != nil {
			return fmt.Sprintf("w%d cold build error: %v", workers, err)
		}
		warm, err := buildWarmOutcome(t, cfg, workers)
		if err != nil {
			return fmt.Sprintf("w%d warm build error: %v", workers, err)
		}
		if msg := warm.diverges(cold); msg != "" {
			return fmt.Sprintf("w%d warm vs cold: %s", workers, msg)
		}
	}
	return ""
}

// TestDifferentialWarmForks is the randomized fork-vs-scratch
// equivalence check with shrinking: a perturbed fork of a frozen world
// must be indistinguishable from the same world built and perturbed
// from scratch.
func TestDifferentialWarmForks(t *testing.T) {
	rng := rand.New(rand.NewSource(20180402))
	configs := 3
	if testing.Short() {
		configs = 1
	}
	for i := 0; i < configs; i++ {
		cfg := randomCfg(rng)
		if msg := checkWarmCfg(t, cfg); msg != "" {
			min, minMsg := shrink(t, cfg, msg, checkWarmCfg)
			t.Fatalf("warm fork diverges from scratch on {%s}: %s\nminimal failing config: {%s}: %s",
				cfg, msg, min, minMsg)
		}
	}
}

// TestDifferentialWarmForkTinyPreset pins the canonical tiny preset.
func TestDifferentialWarmForkTinyPreset(t *testing.T) {
	if msg := checkWarmCfg(t, tinyCfg); msg != "" {
		t.Fatalf("warm fork diverges from scratch on the tiny preset: %s", msg)
	}
}

// TestDifferentialEnginesTinyPreset pins the canonical presets the
// acceptance criteria name: tiny always, small unless -short.
func TestDifferentialEnginesTinyPreset(t *testing.T) {
	if msg := checkCfg(t, tinyCfg); msg != "" {
		t.Fatalf("engines diverge on the tiny preset: %s", msg)
	}
}

func TestDifferentialEnginesSmallPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("small preset differential check skipped in -short mode")
	}
	if msg := checkCfg(t, smallCfg); msg != "" {
		t.Fatalf("engines diverge on the small preset: %s", msg)
	}
}

// TestBuildWorkerCountInvariance is the guarantee README and
// ARCHITECTURE state: with the default engine, gen.Params.Workers only
// sizes a pool. Every value — unset and 1 included — yields the same
// delivery count, byte-equal collector archives, and equal RIBs.
func TestBuildWorkerCountInvariance(t *testing.T) {
	for _, preset := range []struct {
		name string
		cfg  worldCfg
	}{{"tiny", tinyCfg}, {"small", smallCfg}} {
		name, cfg := preset.name, preset.cfg
		if name == "small" && testing.Short() {
			continue
		}
		ref, err := buildOutcome(t, cfg, 0)
		if err != nil {
			t.Fatalf("%s: workers=0: %v", name, err)
		}
		if ref.steps == 0 {
			t.Fatalf("%s: workers=0 produced an empty world", name)
		}
		for _, w := range []int{1, 2, 8} {
			got, err := buildOutcome(t, cfg, w)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", name, w, err)
			}
			if msg := got.diverges(ref); msg != "" {
				t.Errorf("%s: workers=%d vs workers=0: %s", name, w, msg)
			}
		}
	}
}

// TestForkPrefixIsolation: two forks of one frozen tiny world announce,
// concurrently, prefixes the snapshot has never seen — each fork first a
// NO_EXPORT-tagged one that never leaves its origin, then a plain one
// that floods the world. Every prefix gets its id in the
// fork's own copy of the prefix table, so each fork must end
// indistinguishable from a scratch build given the same announcements,
// the snapshot's table must not grow, and a router the fork never
// copied — still the sealed original, with slots only for the
// snapshot's prefixes — must answer "absent" for the fork's prefix
// instead of reading past its slots. Run under -race (make race).
func TestForkPrefixIsolation(t *testing.T) {
	type plan struct {
		local, flood netip.Prefix
	}
	plans := []plan{
		{netx.MustPrefix("198.51.100.0/24"), netx.MustPrefix("203.0.113.0/24")},
		{netx.MustPrefix("2001:db8:f0::/48"), netx.MustPrefix("192.0.2.0/24")},
	}
	p := tinyCfg.params()
	p.Workers = 4
	snap, err := gen.BuildSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := snap.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	origin := probe.StubASes()[0]
	snapTable := probe.Net.Router(origin).Table() // a sealed router reads the snapshot's table
	snapLen := len(snapTable.Prefixes())
	// advertised dumps every Adj-RIB-Out record of the probe's routers,
	// which are all still the snapshot's sealed originals.
	advertised := func() string {
		var b strings.Builder
		for _, asn := range probe.Net.ASes() {
			r := probe.Net.Router(asn)
			for _, p := range snapTable.Prefixes()[:snapLen] {
				for _, nb := range r.Neighbors() {
					if rt, ok := r.Advertised(nb, p); ok {
						fmt.Fprintf(&b, "AS%d>%d %s\n", asn, nb, rt)
					}
				}
			}
		}
		return b.String()
	}
	snapAdvertised := advertised()

	// announce runs a plan on w; on a fork it also reads the local
	// prefix back through a router that is still the sealed original.
	announce := func(w *gen.Internet, pl plan, fork bool) error {
		if _, err := w.Net.Announce(origin, pl.local, bgp.CommunityNoExport); err != nil {
			return err
		}
		if fork {
			sealed := 0
			for _, asn := range w.Net.ASes() {
				r := w.Net.Router(asn)
				if !r.Sealed() {
					continue
				}
				sealed++
				_, best := r.BestRoute(pl.local)
				fib, covered := r.LookupFIB(pl.local.Addr())
				_, adv := r.Advertised(origin, pl.local)
				if best || adv || (covered && fib.Prefix == pl.local) {
					return fmt.Errorf("sealed AS%d knows fork-only %s (best=%v fib=%v advertised=%v)", asn, pl.local, best, fib, adv)
				}
			}
			if sealed == 0 {
				return fmt.Errorf("a NO_EXPORT announcement copied every router: nothing sealed left to read through")
			}
		}
		_, err := w.Net.Announce(origin, pl.flood)
		return err
	}

	warm := make([]*outcome, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, pl := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := snap.Fork(nil)
			if err == nil {
				err = announce(w, pl, true)
			}
			if err == nil {
				warm[i], err = perturbAndCollapse(w)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, pl := range plans {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		w, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := announce(w, pl, false); err != nil {
			t.Fatal(err)
		}
		cold, err := perturbAndCollapse(w)
		if err != nil {
			t.Fatal(err)
		}
		if msg := warm[i].diverges(cold); msg != "" {
			t.Errorf("fork %d vs scratch build: %s", i, msg)
		}
	}
	if got := len(snapTable.Prefixes()); got != snapLen {
		t.Errorf("snapshot prefix table grew from %d to %d prefixes under its forks", snapLen, got)
	}
	if advertised() != snapAdvertised {
		t.Errorf("the snapshot's Adj-RIB-Outs changed under its forks")
	}
}
