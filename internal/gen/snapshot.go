package gen

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/ixp"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// Warm worlds: BuildSnapshot freezes a converged Internet right after
// Build, before any scenario perturbs it, and Fork hands out mutable
// worlds that share the frozen routing state copy-on-write. Everything a
// fork could diverge on is made fork-private here — maps are cloned,
// slices capacity-clamped so appends reallocate, and the construction
// RNG is replayed to the exact draw position Build stopped at — so a
// fork-then-perturb run is bit-identical to building the same perturbed
// world from scratch. The differential suite (internal/attack warm
// tests) holds every registered scenario to that equivalence. Only
// BuildSnapshotForReplay records the construction stream, which a
// tapped fork replays; untapped forks (sweeps) never need it. The build
// converges on every CPU, and the forks run at Params.Workers: a
// snapshot is built once and forked many times, so its build is the
// one step a whole grid waits on.

// countingSource wraps a math/rand source and counts raw draws. Both
// Int63 and Uint64 advance the underlying generator by exactly one step,
// so the count alone pins the stream position: a replayed source that
// burns the same number of draws is in the identical state.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.n = 0
	s.src.Seed(seed)
}

// replaySource returns a source seeded like the original and advanced
// past the same number of draws.
func replaySource(seed int64, draws uint64) *countingSource {
	s := newCountingSource(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.n = draws
	return s
}

// tapEvent is one recorded update delivery from world construction: the
// route is the handle the live tap saw, resolved at replay through the
// snapshot's (sealed, never changed) route arena, 0 for a withdrawal.
type tapEvent struct {
	from, to topo.ASN
	h        router.Handle
	prefix   netip.Prefix
}

// tapBlock is how many events one block of the recorded stream holds
// (192 KiB): the stream grows a block at a time and never copies what it
// has recorded, where one doubling slice copied it all over again at
// every doubling and peaked at one and a half times its length.
const tapBlock = 4096

// Snapshot is a frozen, converged Internet plus everything needed to
// hand out equivalent warm forks: the sealed network, the RNG draw count
// at freeze time and, when built by BuildSnapshotForReplay, the
// construction tap stream (replayed into each tapped fork so stream
// consumers see the full history a scratch build would have shown them).
type Snapshot struct {
	params   Params
	world    *Internet
	net      *simnet.Snapshot
	recorded bool         // the construction stream was recorded
	stream   [][]tapEvent // full blocks of tapBlock events, the last one partial
	draws    uint64
}

// BuildSnapshot builds a world exactly as Build does and freezes it,
// recording nothing: its forks run untapped, and Fork with a tap fails.
// p.Tap must be nil; a fork observes construction only through Fork.
//
// The build converges on one engine worker per CPU whatever p.Workers
// says, and the frozen network is set back to p.Workers, the pool its
// forks run at. Convergence is the same at any worker count, so the
// snapshot is the world Build(p) returns; Compatible ignores Workers.
func BuildSnapshot(p Params) (*Snapshot, error) { return buildSnapshot(p, false) }

// BuildSnapshotForReplay is BuildSnapshot that also records the
// construction stream, so a tapped Fork can replay it. The stream holds
// every construction delivery (2.4M on medium) for the snapshot's
// lifetime: build with it only when forks will be tapped.
func BuildSnapshotForReplay(p Params) (*Snapshot, error) { return buildSnapshot(p, true) }

func buildSnapshot(p Params, record bool) (*Snapshot, error) {
	if p.Tap != nil {
		return nil, errors.New("gen: a snapshot takes no Params.Tap; pass the tap to Fork")
	}
	var stream [][]tapEvent
	if record {
		p.Tap = func(from, to topo.ASN, prefix netip.Prefix, rt simnet.RouteRef) {
			if len(stream) == 0 || len(stream[len(stream)-1]) == tapBlock {
				stream = append(stream, make([]tapEvent, 0, tapBlock))
			}
			last := &stream[len(stream)-1]
			*last = append(*last, tapEvent{from: from, to: to, h: rt.Handle(), prefix: prefix})
		}
	}
	workers := p.Workers
	p.Workers = 0
	w, err := Build(p)
	if err != nil {
		return nil, err
	}
	w.Net.SetWorkers(workers)
	net, err := w.Net.Freeze()
	if err != nil {
		return nil, err
	}
	p.Tap, p.Workers = nil, workers
	return &Snapshot{params: p, world: w, net: net, recorded: record, stream: stream, draws: w.rngSrc.n}, nil
}

// Forks reports how many forks the snapshot has handed out.
func (s *Snapshot) Forks() int { return s.net.Forks() }

// Discard retires the snapshot; further Fork calls fail loudly.
func (s *Snapshot) Discard() error { return s.net.Discard() }

// Compatible reports whether a world built from p would be the world
// this snapshot froze — every parameter except the tap and the engine
// pool size must match. Warm harnesses call it before forking so a
// snapshot can never silently stand in for a differently parameterized
// world; a fork that wants another pool sets it on its network.
func (s *Snapshot) Compatible(p Params) error {
	p.Tap, p.Workers = nil, s.params.Workers
	if !reflect.DeepEqual(s.params, p) {
		return fmt.Errorf("gen: warm snapshot built for %+v cannot serve params %+v", s.params, p)
	}
	return nil
}

// Fork returns a mutable Internet backed by the snapshot. tap, if
// non-nil, first replays the recorded construction stream (so streaming
// consumers see what a live tap on a scratch build would have seen) and
// is then registered on the fork in the same position Build registers
// Params.Tap — before the collectors' taps. A tap on a snapshot built
// without the stream is an error, never a fork that silently missed its
// history. All ground-truth maps and registries are fork-private;
// routers copy-on-write as the fork's runs touch them.
func (s *Snapshot) Fork(tap simnet.UpdateTap) (*Internet, error) {
	defer forkSecs.ObserveSince(time.Now())
	if tap != nil && !s.recorded {
		return nil, errors.New("gen: a tapped fork needs the construction stream; build the snapshot with BuildSnapshotForReplay")
	}
	n, err := s.net.Fork()
	if err != nil {
		return nil, err
	}
	if tap != nil {
		routes := n.Routes()
		for _, block := range s.stream {
			for _, ev := range block {
				tap(ev.from, ev.to, ev.prefix, routes.Ref(ev.h))
			}
		}
		n.Tap(tap)
	}
	w := s.world
	f := &Internet{
		Params:     s.params,
		Graph:      w.Graph,
		Net:        n,
		Origins:    clampSliceMap(w.Origins),
		OriginTags: clampTagMap(w.OriginTags),
		Registry:   w.Registry.forkClone(),
		Catalogs:   maps.Clone(w.Catalogs),
		tagTruth:   maps.Clone(w.tagTruth),
	}
	f.Params.Tap = tap
	f.rngSrc = replaySource(s.params.Seed, s.draws)
	f.rng = rand.New(f.rngSrc)
	f.Collectors = make([]*collector.Collector, 0, len(w.Collectors))
	for _, c := range w.Collectors {
		f.Collectors = append(f.Collectors, c.ForkInto(n))
	}
	f.RouteServers = make([]*ixp.RouteServer, 0, len(w.RouteServers))
	for _, rs := range w.RouteServers {
		f.RouteServers = append(f.RouteServers, rs.ForkInto(n))
	}
	return f, nil
}

// clampSliceMap clones a map of slices with each value capacity-clamped,
// so a fork appending to an entry reallocates instead of writing into
// the snapshot's backing array.
func clampSliceMap(m map[topo.ASN][]netip.Prefix) map[topo.ASN][]netip.Prefix {
	out := make(map[topo.ASN][]netip.Prefix, len(m))
	for k, v := range m {
		out[k] = v[:len(v):len(v)]
	}
	return out
}

func clampTagMap(m map[netip.Prefix]bgp.CommunitySet) map[netip.Prefix]bgp.CommunitySet {
	out := make(map[netip.Prefix]bgp.CommunitySet, len(m))
	for k, v := range m {
		out[k] = v[:len(v):len(v)]
	}
	return out
}

// forkClone returns a fork-private registry: the community lists are
// capacity-clamped (labs append and sort them in place).
func (r *Registry) forkClone() *Registry {
	return &Registry{
		Verified: r.Verified[:len(r.Verified):len(r.Verified)],
		Likely:   r.Likely[:len(r.Likely):len(r.Likely)],
	}
}
