package simnet_test

// The differential engine property test: random worlds must converge to
// identical collector archives (the tap-derived record of every
// delivery), identical RIBs, and identical delivery counts under the
// delta engine and its rounds reference, and under 1/4/16 workers. On
// failure the harness shrinks the world — halving each topology/churn
// dimension while the failure reproduces — and reports the minimal
// failing configuration, which is the one worth debugging.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
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

// outcome captures everything the engines must agree on.
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

// buildOutcome builds the world under one engine/worker setting and
// collapses its observable state.
func buildOutcome(t *testing.T, cfg worldCfg, engine string, workers int) (*outcome, error) {
	t.Helper()
	p := cfg.params()
	p.Engine = engine
	p.Workers = workers
	w, err := gen.Build(p)
	if err != nil {
		return nil, err
	}
	return perturbAndCollapse(w)
}

// buildWarmOutcome builds the same world warm: freeze right after
// construction, fork, and run the identical perturbation on the fork.
// Its outcome must be bit-identical to buildOutcome's for every engine
// and worker count — the copy-on-write equivalence the snapshot layer
// promises.
func buildWarmOutcome(t *testing.T, cfg worldCfg, engine string, workers int) (*outcome, error) {
	t.Helper()
	p := cfg.params()
	p.Engine = engine
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

// checkCfg reports a non-empty divergence description if the engines
// disagree on cfg.
func checkCfg(t *testing.T, cfg worldCfg) string {
	t.Helper()
	ref, err := buildOutcome(t, cfg, "rounds", 1)
	if err != nil {
		return "rounds/1 build error: " + err.Error()
	}
	if ref.steps == 0 {
		return "rounds/1 produced an empty world"
	}
	for _, v := range []struct {
		engine  string
		workers int
	}{
		{"delta", 1}, {"delta", 4}, {"delta", 16},
		{"rounds", 4}, {"rounds", 16},
	} {
		got, err := buildOutcome(t, cfg, v.engine, v.workers)
		if err != nil {
			return fmt.Sprintf("%s/%d build error: %v", v.engine, v.workers, err)
		}
		if msg := got.diverges(ref); msg != "" {
			return fmt.Sprintf("%s/%d vs rounds/1: %s", v.engine, v.workers, msg)
		}
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

// TestDifferentialEngines is the randomized rounds-vs-delta oracle
// check with shrinking. gen hands origin announcements and the churn
// month to Apply as op lists, so the delta side converges them in
// batched windows, while the rounds oracle's Apply stays the independent
// referee: one op, one run, taps fired inline.
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
// engine, any worker count, any observable (delivery count, collector
// archives, converged RIBs).
func checkWarmCfg(t *testing.T, cfg worldCfg) string {
	t.Helper()
	for _, v := range []struct {
		engine  string
		workers int
	}{
		{"rounds", 1}, {"rounds", 4}, {"rounds", 16},
		{"delta", 1}, {"delta", 4}, {"delta", 16},
	} {
		cold, err := buildOutcome(t, cfg, v.engine, v.workers)
		if err != nil {
			return fmt.Sprintf("%s/%d cold build error: %v", v.engine, v.workers, err)
		}
		warm, err := buildWarmOutcome(t, cfg, v.engine, v.workers)
		if err != nil {
			return fmt.Sprintf("%s/%d warm build error: %v", v.engine, v.workers, err)
		}
		if msg := warm.diverges(cold); msg != "" {
			return fmt.Sprintf("%s/%d warm vs cold: %s", v.engine, v.workers, msg)
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
		ref, err := buildOutcome(t, cfg, "", 0)
		if err != nil {
			t.Fatalf("%s: workers=0: %v", name, err)
		}
		if ref.steps == 0 {
			t.Fatalf("%s: workers=0 produced an empty world", name)
		}
		for _, w := range []int{1, 2, 8} {
			got, err := buildOutcome(t, cfg, "", w)
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
	for _, engine := range []string{"delta", "rounds"} {
		p := tinyCfg.params()
		p.Engine = engine
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
				t.Fatalf("%s fork %d: %v", engine, i, errs[i])
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
				t.Errorf("%s fork %d vs scratch build: %s", engine, i, msg)
			}
		}
		if got := len(snapTable.Prefixes()); got != snapLen {
			t.Errorf("%s: snapshot prefix table grew from %d to %d prefixes under its forks", engine, snapLen, got)
		}
		if advertised() != snapAdvertised {
			t.Errorf("%s: the snapshot's Adj-RIB-Outs changed under its forks", engine)
		}
	}
}
