package simnet_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// applyOps draws a seeded op list over a built world that exercises
// everything Apply's batching must get right: more ops than one window,
// same-prefix chains (withdraw, re-announce, re-tag) interleaved with
// other prefixes, a second origin for a prefix, no-op ops (re-announcing
// unchanged, withdrawing what was never announced), prefixes no router
// has seen yet, and host routes under announced /24s.
func applyOps(w *gen.Internet, rng *rand.Rand) []simnet.Op {
	type origin struct {
		as  topo.ASN
		pfx netip.Prefix
	}
	var owned []origin
	var origins []topo.ASN
	for as := range w.Origins {
		origins = append(origins, as)
	}
	slices.Sort(origins)
	for _, as := range origins {
		for _, p := range w.Origins[as] {
			owned = append(owned, origin{as, p})
		}
	}
	tags := func() []bgp.Community {
		var cs []bgp.Community
		for range rng.Intn(3) {
			cs = append(cs, bgp.C(uint16(64512+rng.Intn(4)), uint16(rng.Intn(1000))))
		}
		if reg := w.Registry.Verified; rng.Intn(4) == 0 && len(reg) > 0 {
			cs = append(cs, reg[rng.Intn(len(reg))])
		}
		return cs
	}
	var ops []simnet.Op
	for len(ops) < 200 {
		o := owned[rng.Intn(len(owned))]
		switch rng.Intn(7) {
		case 0: // a chain on one prefix
			ops = append(ops,
				simnet.Op{AS: o.as, Prefix: o.pfx, Withdraw: true},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: tags()},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: tags()})
		case 1: // re-announce unchanged: a no-op once converged
			cs := w.OriginTags[o.pfx]
			ops = append(ops, simnet.Op{AS: o.as, Prefix: o.pfx, Communities: cs},
				simnet.Op{AS: o.as, Prefix: o.pfx, Communities: cs})
		case 2: // withdraw something never announced: a no-op
			ops = append(ops, simnet.Op{AS: o.as, Prefix: netx.PrefixV4(198, 18, byte(rng.Intn(4)), 0, 24), Withdraw: true})
		case 3: // a host route under the origin's /24
			if !o.pfx.Addr().Is4() {
				continue
			}
			host := netip.PrefixFrom(netx.NthAddr(o.pfx, uint64(1+rng.Intn(200))), 32)
			ops = append(ops, simnet.Op{AS: o.as, Prefix: host, Communities: tags()})
			if rng.Intn(2) == 0 {
				ops = append(ops, simnet.Op{AS: o.as, Prefix: host, Withdraw: true})
			}
		case 4: // a second origin for the prefix (MOAS), later retracted
			other := origins[rng.Intn(len(origins))]
			ops = append(ops, simnet.Op{AS: other, Prefix: o.pfx, Communities: tags()})
			if rng.Intn(2) == 0 {
				ops = append(ops, simnet.Op{AS: other, Prefix: o.pfx, Withdraw: true})
			}
		case 5: // a prefix the network has never seen
			ops = append(ops, simnet.Op{AS: o.as, Prefix: netx.PrefixV4(100, 64, byte(rng.Intn(256)), 0, 24), Communities: tags()})
		default: // one flap step
			ops = append(ops, simnet.Op{AS: o.as, Prefix: o.pfx, Withdraw: rng.Intn(2) == 0, Communities: w.OriginTags[o.pfx]})
		}
	}
	// Interleave: swap neighbours a little so chains on one prefix are
	// split by ops on others without losing their relative order.
	for i := 1; i < len(ops); i++ {
		if rng.Intn(3) == 0 && ops[i].Prefix.Masked() != ops[i-1].Prefix.Masked() {
			ops[i], ops[i-1] = ops[i-1], ops[i]
		}
	}
	return ops
}

// applyTranscript is everything a batched Apply must reproduce: every
// tap call in order, the per-op delivery counts, and every RIB.
type applyTranscript struct {
	taps   []string
	counts []int
	ribs   string
}

func recordTaps(n *simnet.Network, into *[]string) {
	n.Tap(func(from, to topo.ASN, p netip.Prefix, rt *policy.Route) {
		if rt == nil {
			*into = append(*into, fmt.Sprintf("%d>%d %s withdraw", from, to, p))
			return
		}
		*into = append(*into, fmt.Sprintf("%d>%d %s %s", from, to, p, rt))
	})
}

func ribDump(n *simnet.Network) string {
	var b strings.Builder
	for _, asn := range n.ASes() {
		for _, rt := range n.Router(asn).RIB() {
			fmt.Fprintf(&b, "AS%d %s\n", asn, rt)
		}
	}
	return b.String()
}

// TestApplyMatchesSerial holds Apply to its contract on seeded random
// worlds at workers 1, 2 and 4: one Apply(ops...) fires exactly the tap
// calls, returns exactly the per-op delivery counts, and leaves exactly
// the RIBs of applying the ops one at a time in slice order.
func TestApplyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260415))
	worlds := 3
	if testing.Short() {
		worlds = 1
	}
	for range worlds {
		cfg := randomCfg(rng)
		cfg.Churn, cfg.RTBH = 0, 0
		opSeed := rng.Int63()
		for _, workers := range []int{1, 2, 4} {
			p := cfg.params()
			p.Workers = workers
			run := func(batched bool) applyTranscript {
				w, err := gen.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				var tr applyTranscript
				recordTaps(w.Net, &tr.taps)
				ops := applyOps(w, rand.New(rand.NewSource(opSeed)))
				if batched {
					tr.counts, err = w.Net.Apply(ops...)
					if err != nil {
						t.Fatal(err)
					}
				} else {
					for _, op := range ops {
						c, err := w.Net.Apply(op)
						if err != nil {
							t.Fatal(err)
						}
						tr.counts = append(tr.counts, c...)
					}
				}
				tr.ribs = ribDump(w.Net)
				return tr
			}
			serial, batched := run(false), run(true)
			where := fmt.Sprintf("{%s} workers=%d", cfg, workers)
			if len(serial.taps) == 0 {
				t.Fatalf("%s: the ops delivered nothing", where)
			}
			if !slices.Equal(batched.counts, serial.counts) {
				t.Fatalf("%s: per-op deliveries\n batched %v\n  serial %v", where, batched.counts, serial.counts)
			}
			if i := firstDiff(batched.taps, serial.taps); i >= 0 {
				t.Fatalf("%s: tap call %d of %d/%d differs\n batched %s\n  serial %s", where, i,
					len(batched.taps), len(serial.taps), at(batched.taps, i), at(serial.taps, i))
			}
			if batched.ribs != serial.ribs {
				t.Fatalf("%s: RIBs differ", where)
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) || i >= len(a) || i >= len(b) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestApplyBoundsEachOp: the convergence bound counts deliveries per op,
// never per batch. A bound every op fits under lets a batch whose total
// exceeds it converge; one an op exceeds fails the batch with the error
// the op raises on its own.
func TestApplyBoundsEachOp(t *testing.T) {
	build := func(max int) (*gen.Internet, []simnet.Op) {
		p := tinyCfg.params()
		p.Workers = 2
		w, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		w.Net.SetMaxDeliveries(max)
		var ops []simnet.Op
		for _, as := range w.StubASes() {
			for _, pfx := range w.Origins[as] {
				ops = append(ops, simnet.Op{AS: as, Prefix: pfx, Withdraw: true})
			}
		}
		return w, ops
	}
	w, ops := build(0)
	counts, err := w.Net.Apply(ops...)
	if err != nil {
		t.Fatal(err)
	}
	most, total := slices.Max(counts), 0
	for _, c := range counts {
		total += c
	}
	if total <= most {
		t.Fatalf("one op carries all %d deliveries; nothing to bound per op", total)
	}
	w, ops = build(most)
	if _, err := w.Net.Apply(ops...); err != nil {
		t.Fatalf("bound %d fits every op, yet the batch of %d deliveries failed: %v", most, total, err)
	}
	w, ops = build(most - 1)
	var serialErr error
	for _, op := range ops {
		if _, serialErr = w.Net.Apply(op); serialErr != nil {
			break
		}
	}
	w, ops = build(most - 1)
	_, batchErr := w.Net.Apply(ops...)
	if serialErr == nil || batchErr == nil || batchErr.Error() != serialErr.Error() {
		t.Fatalf("bound %d: batched error %v, serial error %v", most-1, batchErr, serialErr)
	}
}
