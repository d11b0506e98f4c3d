package gen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"runtime"
	"slices"

	"bgpworms/internal/collector"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
	"bgpworms/internal/simnet"
)

// Prefix-partitioned worlds: a world whose only consumers are its
// collectors' update archives need never hold all its routes at once.
// Build's and RunChurn's ops are drawn without reading network state,
// and a prefix's trajectory never depends on another prefix's state
// (Network.Apply), so each collector's archive is the concatenation, in
// op order, of each op's deliveries to it, and an op's deliveries depend
// only on the earlier ops on its prefix. PlanArchives draws the ops and
// freezes the routeless network once; Converge splits the ops into
// prefix-hash partitions and converges each on a fork of the frozen
// network at one engine worker, turning its archives into events and
// dropping its routers and arena before the next partition in its slot
// starts; Merge puts each collector's events back in op order and
// renumbers its session clock. The result is exactly what
// core.FromCollectors makes of the world Build and RunChurn converge.
// RIB dumps and the data plane read across prefixes, so genesis, warm
// snapshots and scenario worlds stay whole.

// partitionsPerWorker sets K, the number of partitions, to this many
// per worker; at most workers partitions are in flight. A partition
// holds about the world's routes over K, and each pays a fork that
// clones every router its ops reach and converges thinner delta rounds.
// worms -scale medium -seed 1 -workers 2 on a 2-core VM, as median
// ratios to the whole world over 8 interleaved runs (two sweeps, where
// K ran in both):
//
//	K   wall        cpu         peak RSS
//	4   0.81        0.91        1.04 (up to 230 MB, against 197)
//	6   0.75        0.88        0.92
//	8   0.79, 0.78  0.91, 0.87  0.86, 0.87
//	12  0.74, 0.81  0.86, 0.89  0.80, 0.81
//	16  0.78        0.87        0.77
//
// From K = 6 up, wall and CPU time stay within the VM's spread while
// peak RSS keeps falling; at K = 8 it is below the whole world's in
// every run. Each partition clones the routers its ops reach, a cost
// that grows with the world's router count (1,028 on medium, ~63k on
// internet) and not with its routes, so K stays at the smallest count
// that holds peak RSS below the whole world's.
const partitionsPerWorker = 4

// ArchivePlan is a world drawn but not converged: the collectors wired
// into the frozen routeless network, the registry, and every op Build
// and RunChurn would apply, in their order.
type ArchivePlan struct {
	// Collectors are the world's collectors, peers wired and nothing
	// observed; Converge observes through forks of them.
	Collectors []*collector.Collector
	// Registry is the world's blackhole community registry.
	Registry *Registry
	// net is the world before any op: every router configured and every
	// session wired, no route anywhere. Converge runs on forks of it.
	net *simnet.Snapshot
	// ops are the ops Build applies (one announcement per origin
	// prefix), then those RunChurn applies, in their order.
	ops     []simnet.Op
	workers int
}

// PlanArchives draws the world Build(p) and RunChurn would converge and
// freezes it without a route. p.Tap must be nil: the collectors are the
// plan's only observers.
func PlanArchives(p Params) (*ArchivePlan, error) {
	if p.Tap != nil {
		return nil, errors.New("gen: an archive plan takes no Params.Tap; its collectors are its only taps")
	}
	w, ops, err := plan(p)
	if err != nil {
		return nil, err
	}
	churn, _ := w.churnOps()
	net, err := w.Net.Freeze()
	if err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ArchivePlan{
		Collectors: w.Collectors,
		Registry:   w.Registry,
		net:        net,
		ops:        append(ops, churn...),
		workers:    workers,
	}, nil
}

// Fork returns a fork of the plan's world before any op and a copy of
// its ops, to converge the plan some other way than Converge without
// changing what Converge reads.
func (a *ArchivePlan) Fork() (*simnet.Network, []simnet.Op, error) {
	n, err := a.net.Fork()
	if err != nil {
		return nil, nil, err
	}
	return n, slices.Clone(a.ops), nil
}

// Partitions is K, the number of prefix partitions Converge runs.
func (a *ArchivePlan) Partitions() int { return partitionsPerWorker * a.workers }

// Converge converges the plan's ops in Partitions() prefix partitions,
// at most Params.Workers of them at a time (one per CPU when it is 0 or
// negative).
func (a *ArchivePlan) Converge() (*Archives, error) { return a.converge(a.Partitions()) }

// Archives are a plan's converged partitions, each holding its
// collectors' events until Merge.
type Archives struct {
	owner      []int // the partition of each of the plan's ops
	parts      []partition
	collectors int
}

// partition is one prefix slice of a plan: the ops it converged and
// what each collector observed of them.
type partition struct {
	ops    []int          // indices of its ops in the plan, ascending
	counts []int          // the deliveries each of its ops caused
	events [][]feed.Event // per collector, its archive in op order
	ends   [][]int32      // per collector, len(events) after each op
}

// partitionOf assigns a prefix to one of k partitions by a hash of its
// masked address and length.
func partitionOf(p netip.Prefix, k int) int {
	p = p.Masked()
	a := p.Addr().As16()
	h := fnv.New32a()
	h.Write(a[:])
	h.Write([]byte{byte(p.Bits())})
	return int(h.Sum32() % uint32(k))
}

func (a *ArchivePlan) converge(k int) (*Archives, error) {
	ar := &Archives{owner: make([]int, len(a.ops)), parts: make([]partition, k), collectors: len(a.Collectors)}
	for i, op := range a.ops {
		j := partitionOf(op.Prefix, k)
		ar.owner[i] = j
		ar.parts[j].ops = append(ar.parts[j].ops, i)
	}
	errs := make([]error, k)
	conc.Do(k, a.workers, func(j int) {
		if err := a.convergePartition(&ar.parts[j]); err != nil {
			errs[j] = fmt.Errorf("gen: partition %d of %d: %w", j, k, err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ar, nil
}

// convergePartition applies pt's ops on a fork of the plan's network
// at one engine worker and keeps what its collectors observed, as
// events with each op's end, then lets the fork go.
func (a *ArchivePlan) convergePartition(pt *partition) error {
	if len(pt.ops) == 0 {
		return nil
	}
	n, err := a.net.Fork()
	if err != nil {
		return err
	}
	n.SetWorkers(1)
	cs := make([]*collector.Collector, len(a.Collectors))
	for i, c := range a.Collectors {
		cs[i] = c.ForkInto(n)
	}
	pt.ends = make([][]int32, len(cs))
	for i := range pt.ends {
		pt.ends[i] = make([]int32, 0, len(pt.ops))
	}
	n.OnOp(func(int) {
		for i, c := range cs {
			pt.ends[i] = append(pt.ends[i], int32(len(c.Observations())))
		}
	})
	ops := make([]simnet.Op, len(pt.ops))
	for i, g := range pt.ops {
		ops[i] = a.ops[g]
	}
	pt.counts, err = n.Apply(ops...)
	if err != nil {
		return err
	}
	pt.events = make([][]feed.Event, len(cs))
	for i, c := range cs {
		pt.events[i] = c.AppendEvents(make([]feed.Event, 0, len(c.Observations())))
	}
	return nil
}

// Merge returns every collector's archive, collectors in the plan's
// order, each in op order and stamped with its own session clock, the
// n-th event at feed.LogicalTime(n): the Updates core.FromCollectors
// makes of the whole world. It drops the partitions as it returns, so a
// second Merge returns nothing.
func (ar *Archives) Merge() []feed.Event {
	defer func() { ar.owner, ar.parts, ar.collectors = nil, nil, 0 }()
	total := 0
	for _, pt := range ar.parts {
		for _, evs := range pt.events {
			total += len(evs)
		}
	}
	out := make([]feed.Event, 0, total)
	nextOp := make([]int, len(ar.parts))
	nextEv := make([]int32, len(ar.parts))
	for c := range ar.collectors {
		start := len(out)
		clear(nextOp)
		clear(nextEv)
		for _, j := range ar.owner {
			pt := &ar.parts[j]
			end := pt.ends[c][nextOp[j]]
			out = append(out, pt.events[c][nextEv[j]:end]...)
			nextOp[j]++
			nextEv[j] = end
		}
		for i := start; i < len(out); i++ {
			out[i].Time = feed.LogicalTime(uint64(i - start + 1))
		}
	}
	return out
}
