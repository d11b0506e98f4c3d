package gen

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"slices"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
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
// network at one engine worker, keeping its archives as compact records
// and dropping its routers and arena before the next partition in its
// slot starts; Each walks one collector's records in op order and
// yields them as events on the collector's own session clock. What it
// yields is exactly what core.FromCollectors makes of the world Build
// and RunChurn converge. RIB dumps and the data plane read across
// prefixes, so genesis, warm snapshots and scenario worlds stay whole.

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
// collectors' archives as records, which Each yields as events.
type Archives struct {
	ops   []simnet.Op // the plan's, read-only
	owner []int       // the partition of each op
	parts []partition
	names []string // the collectors' names, in the plan's order
}

// partition is one prefix slice of a plan: the ops it converged and
// what each collector observed of them, as records naming their AS
// paths and community sets in the partition's own tables.
type partition struct {
	ops     []int      // indices of its ops in the plan, ascending
	counts  []int      // the deliveries each of its ops caused
	records [][]record // per collector, its archive in op order
	ends    [][]int32  // per collector, len(records) after each op
	paths   [][]uint32 // each distinct AS path its records name, flattened
	sets    []bgp.CommunitySet
}

// record is one observation of a partition's archive: 16 bytes and no
// pointer. An announcement names its flattened AS path and its
// community set by index in the partition's tables. Its prefix is its
// op's, and its time is its place in the collector's archive.
type record struct {
	peer      uint32
	path, set uint32
	withdraw  bool
}

// partitionOf assigns a prefix to one of k partitions by the hash of
// its masked form.
func partitionOf(p netip.Prefix, k int) int {
	return int(netx.PrefixHash(p.Masked()) % uint32(k))
}

func (a *ArchivePlan) converge(k int) (*Archives, error) {
	ar := &Archives{ops: a.ops, owner: make([]int, len(a.ops)), parts: make([]partition, k), names: make([]string, len(a.Collectors))}
	for i, c := range a.Collectors {
		ar.names[i] = c.Name
	}
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
// records with each op's end, then lets the fork go.
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
	return pt.keep(cs, ops)
}

// keep turns what cs observed of ops, pt's ops, into records while
// their arena is alive, flattening each distinct AS path and community
// set once. A record takes its prefix from its op, so an observation
// of any other prefix fails the partition.
func (pt *partition) keep(cs []*collector.Collector, ops []simnet.Op) error {
	paths, sets := map[uint32]uint32{}, map[uint32]uint32{}
	pt.records = make([][]record, len(cs))
	for i, c := range cs {
		obs := c.Observations()
		recs := make([]record, 0, len(obs))
		for k, end := range pt.ends[i] {
			want := ops[k].Prefix.Masked()
			for _, ob := range obs[len(recs):end] {
				if p := c.Prefix(ob); p != want {
					return fmt.Errorf("collector %s observed %v during an op on %v", c.Name, p, want)
				}
				ref := c.Route(ob)
				if !ref.Valid() {
					recs = append(recs, record{peer: uint32(ob.PeerAS), withdraw: true})
					continue
				}
				pid, sid := ref.ValueIDs()
				path, pathSeen := paths[pid]
				set, setSeen := sets[sid]
				if !pathSeen || !setSeen {
					rt := ref.Route()
					if !pathSeen {
						path = uint32(len(pt.paths))
						paths[pid] = path
						pt.paths = append(pt.paths, rt.ASPath.Sequence())
					}
					if !setSeen {
						set = uint32(len(pt.sets))
						sets[sid] = set
						pt.sets = append(pt.sets, rt.Communities.Clone())
					}
				}
				recs = append(recs, record{peer: uint32(ob.PeerAS), path: path, set: set})
			}
		}
		if len(recs) != len(obs) {
			return fmt.Errorf("collector %s observed %d updates after the last op's end", c.Name, len(obs)-len(recs))
		}
		pt.records[i] = recs
	}
	return nil
}

// Each yields the archive of the plan's c-th collector in op order: the
// events core.FromCollectors makes of that collector in the whole
// world, the n-th at feed.LogicalTime(n) on the collector's own clock. Every event is built in one value that Each reuses, so yield
// must copy what it keeps of it; its AS path and community set are the
// partition's, shared by every event that names them, and read-only.
// Each only reads the archives, so several may run at once.
func (ar *Archives) Each(c int, yield func(*feed.Event)) {
	nextOp := make([]int, len(ar.parts))
	nextRec := make([]int32, len(ar.parts))
	var ev feed.Event
	n := uint64(0)
	for g, j := range ar.owner {
		pt := &ar.parts[j]
		end := pt.ends[c][nextOp[j]]
		prefix := ar.ops[g].Prefix.Masked()
		for _, r := range pt.records[c][nextRec[j]:end] {
			n++
			ev = feed.Event{Time: feed.LogicalTime(n), Source: ar.names[c], PeerAS: r.peer, Prefix: prefix, Withdraw: r.withdraw}
			if !r.withdraw {
				ev.ASPath, ev.Communities = pt.paths[r.path], pt.sets[r.set]
			}
			yield(&ev)
		}
		nextOp[j]++
		nextRec[j] = end
	}
}
