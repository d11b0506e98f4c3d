// Command attacklab is the CLI over the attack-scenario registry
// (internal/scenario). It can catalog the registered scenarios, run one
// scenario with typed parameters, sweep a scenario grid over a parallel
// harness, or reproduce the paper's full §6–§7 report.
//
// Usage:
//
//	attacklab                         # full §6–§7 report (vendor matrix, §7.2, Table 3, §7.6)
//	attacklab -list [-json]           # scenario catalog
//	attacklab -run rtbh -p hijack=true [-json]
//	attacklab -sweep -scenarios rtbh,blackhole-sweep -seeds 1,2,3 \
//	          -engine-workers 1,8 -sets verified,all -workers 8 [-json]
//
// Sweep output is bit-identical for any -workers value: cells land at
// their grid index and the fold runs in grid order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"bgpworms/internal/attack"
	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/obs"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/scenario"
	"bgpworms/internal/stats"
	"bgpworms/internal/topo"
)

// multiFlag collects repeated -p k=v arguments.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		list   = flag.Bool("list", false, "print the scenario catalog and exit")
		run    = flag.String("run", "", "run one registered scenario by name")
		sweep  = flag.Bool("sweep", false, "sweep a scenario grid (see -scenarios/-scales/-seeds/-engine-workers/-sets)")
		asJSON = flag.Bool("json", false, "emit JSON instead of tables")

		world = gen.NewFlags(flag.CommandLine, "small")
		vps   = flag.Int("vps", 48, "atlas vantage points")
		set   = flag.String("set", "verified", "community set for candidate-driven scenarios: verified|likely|all")

		scenarios     = flag.String("scenarios", "", "sweep: comma-separated scenario names (empty = all)")
		scales        = flag.String("scales", "tiny", "sweep: comma-separated scales")
		seeds         = flag.String("seeds", "1", "sweep: comma-separated generator seeds")
		engineWorkers = flag.String("engine-workers", "1", "sweep: comma-separated simnet engine worker counts, each sizing a cell's fork of the shared world (0 = one per CPU)")
		// -engines exists for bench/, which passes "delta"; it goes when
		// a benchmark PR drops the argument.
		engines = flag.String("engines", "delta", "sweep: simnet engine: delta (the only one)")
		sets    = flag.String("sets", "verified", "sweep: comma-separated community sets")
		workers = flag.Int("workers", 0, "sweep harness worker pool (0 = one per CPU)")

		traceOut = flag.String("trace", "", "sweep: write a JSON span trace with one span per grid cell")
		verbose  = flag.Bool("v", false, "print per-scenario evidence (sweep: per-cell progress on stderr)")
		params   multiFlag
	)
	flag.Var(&params, "p", "scenario parameter as name=value (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}

	// A sweep names its worlds by grid and a single world is named by
	// -scale/-seed, so each refuses the other's flags rather than run
	// on defaults in silence.
	sweepOnly := []string{"scales", "seeds", "engine-workers", "engines", "sets", "scenarios", "workers", "trace"}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *sweep && slices.Contains([]string{"scale", "seed", "set", "run"}, f.Name):
			fail(fmt.Errorf("-sweep names its worlds with -scales/-seeds/-sets and does not read -%s", f.Name))
		case !*sweep && slices.Contains(sweepOnly, f.Name):
			fail(fmt.Errorf("-%s is read only by -sweep", f.Name))
		}
	})

	switch {
	case *list:
		runList(*asJSON)
	case *sweep:
		runSweep(*scenarios, *scales, *seeds, *engineWorkers, *engines, *sets, *vps, *workers, params, *asJSON, *traceOut, *verbose)
	default:
		p, err := world.Params()
		if err != nil {
			fail(err)
		}
		if *run != "" {
			runOne(*run, p, *vps, *set, params, *asJSON, *verbose)
		} else {
			fullReport(p, world.Scale, *vps, *verbose)
		}
	}
}

func runList(asJSON bool) {
	all := scenario.All()
	if asJSON {
		emitJSON(all)
		return
	}
	fmt.Println(scenario.RenderCatalog(all))
}

func runOne(name string, p gen.Params, vps int, set string, params multiFlag, asJSON, verbose bool) {
	ctx := &scenario.Context{Gen: p, VPs: vps, CommunitySet: set, Values: parseParams(params)}
	res, err := scenario.Run(name, ctx)
	if err != nil {
		fail(err)
	}
	if asJSON {
		emitJSON(res)
		return
	}
	fmt.Println(attack.RenderTable3([]*scenario.Result{res}))
	if verbose {
		printEvidence(res)
	}
}

func runSweep(scenarios, scales, seeds, engineWorkers, engines, sets string, vps, workers int, params multiFlag, asJSON bool, traceOut string, verbose bool) {
	g := scenario.Grid{
		Scenarios:     splitList(scenarios),
		Scales:        splitList(scales),
		Engines:       splitList(engines),
		CommunitySets: splitList(sets),
		VPs:           vps,
		Values:        parseParams(params),
	}
	for _, s := range splitList(seeds) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fail(fmt.Errorf("bad -seeds entry %q: %w", s, err))
		}
		g.Seeds = append(g.Seeds, n)
	}
	for _, s := range splitList(engineWorkers) {
		n, err := strconv.Atoi(s)
		if err != nil {
			fail(fmt.Errorf("bad -engine-workers entry %q: %w", s, err))
		}
		g.EngineWorkers = append(g.EngineWorkers, n)
	}
	var opt scenario.SweepOpt
	if traceOut != "" {
		opt.Trace = obs.NewTrace("attacklab sweep")
	}
	if verbose {
		opt.Progress = scenario.PrintProgress(os.Stderr)
	}
	rep, err := scenario.SweepOpts(g, workers, opt)
	if err != nil {
		fail(err)
	}
	if traceOut != "" {
		if err := opt.Trace.WriteFile(traceOut); err != nil {
			fail(err)
		}
	}
	if asJSON {
		emitJSON(rep)
		return
	}
	fmt.Println(scenario.RenderSweep(rep))
	if rep.SnapshotBuilds > 0 {
		fmt.Printf("warm worlds: %d built, %d cell runs forked\n", rep.SnapshotBuilds, rep.SnapshotForks)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseParams(params multiFlag) scenario.Values {
	if len(params) == 0 {
		return nil
	}
	v := scenario.Values{}
	for _, kv := range params {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			fail(fmt.Errorf("bad -p %q: want name=value", kv))
		}
		v[name] = val
	}
	return v
}

func printEvidence(res *scenario.Result) {
	fmt.Printf("-- %s (hijack=%v, success=%v)\n", res.Scenario, res.Hijack, res.Success)
	for _, e := range res.Evidence {
		fmt.Println("   ", e)
	}
	for _, i := range res.Insights {
		fmt.Println("    insight:", i)
	}
	fmt.Println()
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

// fullReport reproduces the paper's §6–§7 narrative end to end on one
// lab, exactly as the pre-registry attacklab did.
func fullReport(p gen.Params, scale string, vps int, verbose bool) {
	fmt.Println("== §6.1: vendor lab matrix ==")
	fmt.Println(vendorMatrix())

	fmt.Printf("building lab (%s internet, %d VPs)...\n\n", scale, vps)
	lab, err := attack.NewLab(p, vps)
	if err != nil {
		fail(err)
	}

	fmt.Println("== §7.2: benign community propagation ==")
	var reps []*attack.PropagationReport
	for _, inj := range []*attack.Injector{lab.Research, lab.Peering} {
		r, err := lab.PropagationCheck(inj)
		if err != nil {
			fail(err)
		}
		reps = append(reps, r)
	}
	fmt.Println(attack.RenderPropagation(reps))

	fmt.Println("== Table 3: attack matrix ==")
	results, err := lab.Table3()
	if err != nil {
		fail(err)
	}
	fmt.Println(attack.RenderTable3(results))
	if verbose {
		for _, r := range results {
			printEvidence(r)
		}
	}

	fmt.Println("== §7.6: automated blackhole community sweep ==")
	sweep, err := lab.BlackholeSweep(lab.W.Registry.All())
	if err != nil {
		fail(err)
	}
	fmt.Println(attack.RenderSweep(sweep))
	if verbose {
		for _, e := range sweep.InducingCommunities() {
			fmt.Printf("  %s: %d VPs lost, target on %d traces, hop distances %v\n",
				e.Community, len(e.LostVPs), e.TargetOnPath, e.HopDistances)
		}
	}
}

// vendorMatrix reproduces the §6.1 default-behaviour findings as a table.
func vendorMatrix() string {
	pfx := netx.MustPrefix("203.0.113.0/24")
	t := stats.NewTable("Vendor", "send-community", "communities forwarded")
	for _, vendor := range []router.Vendor{router.VendorJuniper, router.VendorCisco} {
		for _, send := range []bool{false, true} {
			cfg := router.Config{ASN: 65001, Vendor: vendor}
			if send {
				cfg.SendCommunity = map[topo.ASN]bool{64501: true}
			}
			r := router.New(cfg)
			r.AddNeighbor(64500, topo.RelCustomer)
			r.AddNeighbor(64501, topo.RelCustomer)
			in := policy.NewLocalRoute(pfx)
			in.ASPath = bgp.Path(64500, 1)
			in.Communities = bgp.NewCommunitySet(bgp.C(7, 7))
			r.ReceiveUpdate(64500, in)
			out, _ := r.ExportTo(64501, pfx)
			name := "Juniper"
			if vendor == router.VendorCisco {
				name = "Cisco"
			}
			t.Row(name, send, out != nil && out.Communities.Has(bgp.C(7, 7)))
		}
	}
	return t.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "attacklab:", err)
	os.Exit(1)
}
