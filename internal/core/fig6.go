package core

import (
	"net/netip"
	"slices"

	"bgpworms/internal/bgp"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
	"bgpworms/internal/stats"
)

// Edge is a directed AS adjacency (From forwarded to To).
type Edge struct {
	From, To uint32
}

// Indications accumulates the §4.4 per-edge evidence counts.
type Indications struct {
	// Forwarded counts (community, path) events where From demonstrably
	// relayed a foreign community to To.
	Forwarded int
	// Filtered counts events where the community was known to reach From
	// but was absent beyond it toward To.
	Filtered int
	// Added counts community-added indications (the tagger's egress edge).
	Added int
	// Paths counts concurrent routes traversing the edge (visibility).
	Paths int
}

func (in *Indications) merge(o *Indications) {
	in.Forwarded += o.Forwarded
	in.Filtered += o.Filtered
	in.Added += o.Added
	in.Paths += o.Paths
}

// FilterInference is the Figure 6 computation output.
type FilterInference struct {
	Edges map[Edge]*Indications
}

func newFilterInference() *FilterInference {
	return &FilterInference{Edges: make(map[Edge]*Indications)}
}

func (fi *FilterInference) get(e Edge) *Indications {
	in := fi.Edges[e]
	if in == nil {
		in = &Indications{}
		fi.Edges[e] = in
	}
	return in
}

func (fi *FilterInference) merge(o *FilterInference) {
	for e, in := range o.Edges {
		fi.get(e).merge(in)
	}
}

// inferScratch is one worker's inferPrefix state, reused from prefix to
// prefix.
type inferScratch struct {
	// buf holds every announcement's stripped path, origin first, and
	// paths each one's slice of it; ids is buf with each AS replaced by
	// its dense index within the prefix (idOf), and idPaths slices it.
	buf     []uint32
	paths   [][]uint32
	ids     []int32
	idPaths [][]int32
	idOf    map[uint32]int32
	comms   map[bgp.Community]bool
	// received marks, by dense index, the ASes one community reached.
	received []bool
}

func newInferScratch() *inferScratch {
	return &inferScratch{idOf: make(map[uint32]int32), comms: make(map[bgp.Community]bool)}
}

// inferPrefix runs the §4.4 heuristic over the concurrent announcements
// of one prefix, accumulating edge indications into fi: for every
// community, ASes downstream of the conservative tagger are known
// receivers; an announcement of the same prefix passing through a known
// receiver without the community yields a filtered indication on the
// egress edge where it went missing. Every contribution is a
// commutative count, so the result is independent of announcement and
// community iteration order — the property that makes prefix-sharded
// parallel execution bit-identical to the serial scan.
func (fi *FilterInference) inferPrefix(anns []*feed.Event, s *inferScratch) {
	// Each announcement's stripped path, origin first, built once, and
	// its ASes as dense indexes, looked up once per prefix rather than
	// once per community.
	total := 0
	for _, ann := range anns {
		total += len(ann.ASPath)
	}
	buf, ids := slices.Grow(s.buf[:0], total), slices.Grow(s.ids[:0], total)
	paths, idPaths := s.paths[:0], s.idPaths[:0]
	clear(s.idOf)
	for _, ann := range anns {
		lo := len(buf)
		buf = bgp.StripPrepending(buf, ann.ASPath)
		slices.Reverse(buf[lo:])
		for _, as := range buf[lo:] {
			id, seen := s.idOf[as]
			if !seen {
				id = int32(len(s.idOf))
				s.idOf[as] = id
			}
			ids = append(ids, id)
		}
		paths = append(paths, buf[lo:len(buf):len(buf)])
		idPaths = append(idPaths, ids[lo:len(ids):len(ids)])
	}
	s.buf, s.ids, s.paths, s.idPaths = buf, ids, paths, idPaths
	received := slices.Grow(s.received[:0], len(s.idOf))[:len(s.idOf)]
	s.received = received
	// Path visibility counts (origin-first edges).
	for _, o := range paths {
		for k := 0; k+1 < len(o); k++ {
			fi.get(Edge{o[k], o[k+1]}).Paths++
		}
	}
	// Candidate communities for this prefix.
	clear(s.comms)
	for _, ann := range anns {
		for _, c := range ann.Communities {
			if c.ASN() != 0 && c.ASN() != 0xFFFF {
				s.comms[c] = true
			}
		}
	}
	for c := range s.comms {
		// Receivers: tagger and everyone after it on each carrying
		// path.
		clear(received)
		anyReceived := false
		for i, o := range paths {
			if !anns[i].Communities.Has(c) {
				continue
			}
			// The conservative tagger (TaggerIndex on the collector-first
			// path) is the occurrence nearest the collector: the last one
			// origin first.
			oi := len(o) - 1
			for oi >= 0 && o[oi] != uint32(c.ASN()) {
				oi--
			}
			if oi < 0 {
				continue // off-path: no geometry to reason about
			}
			// Added indication on the tagger's egress edge.
			if oi+1 < len(o) {
				fi.get(Edge{o[oi], o[oi+1]}).Added++
			}
			// Forward indications: each AS after the tagger that
			// passed the community on (not counting the collector
			// session, which is config-special per §4.3 footnote).
			for k := oi + 1; k+1 < len(o); k++ {
				fi.get(Edge{o[k], o[k+1]}).Forwarded++
			}
			for _, id := range idPaths[i][oi:] {
				received[id] = true
			}
			anyReceived = true
		}
		if !anyReceived {
			continue
		}
		// Filtered indications: announcements of the same prefix
		// without c that pass through a known receiver.
		for i, o := range paths {
			if anns[i].Communities.Has(c) {
				continue
			}
			// The LAST receiver on the path is where the community
			// was dropped toward the next hop.
			for k := len(o) - 2; k >= 0; k-- {
				if received[idPaths[i][k]] {
					fi.get(Edge{o[k], o[k+1]}).Filtered++
					break
				}
			}
		}
	}
}

// inferFiltering runs the Figure 6 inference over the concurrent view
// (latest route per collector peer), sharded by prefix: each worker
// owns a disjoint set of prefix groups and accumulates a private edge
// map; the per-worker maps merge by summation.
func (p *Pipeline) inferFiltering(routes []*feed.Event) *FilterInference {
	byPrefix := make(map[netip.Prefix][]*feed.Event)
	var order []netip.Prefix
	for _, u := range routes {
		group, seen := byPrefix[u.Prefix]
		if !seen {
			order = append(order, u.Prefix)
		}
		byPrefix[u.Prefix] = append(group, u)
	}

	w := p.workers()
	shards := conc.Chunks(len(order), w)
	partial := make([]*FilterInference, len(shards))
	conc.Do(len(shards), w, func(i int) {
		fi, s := newFilterInference(), newInferScratch()
		for _, pfx := range order[shards[i][0]:shards[i][1]] {
			fi.inferPrefix(byPrefix[pfx], s)
		}
		partial[i] = fi
	})
	fi := newFilterInference()
	for _, part := range partial {
		fi.merge(part)
	}
	return fi
}

// FilterSummary holds the §4.4 headline percentages.
type FilterSummary struct {
	TotalEdges      int
	WithForwardSign int
	WithFilterSign  int
	// AtThreshold restricts to edges with >= MinPaths concurrent paths.
	MinPaths            int
	EdgesAtThreshold    int
	ForwardAtThreshold  int
	FilteredAtThreshold int
}

// Summarize computes edge-level statistics; minPaths mirrors the paper's
// ">= 100 AS paths" visibility threshold (scaled for synthetic data).
func (fi *FilterInference) Summarize(minPaths int) FilterSummary {
	s := FilterSummary{MinPaths: minPaths}
	for _, in := range fi.Edges {
		s.TotalEdges++
		if in.Forwarded > 0 {
			s.WithForwardSign++
		}
		if in.Filtered > 0 {
			s.WithFilterSign++
		}
		if in.Paths >= minPaths {
			s.EdgesAtThreshold++
			if in.Forwarded > 0 {
				s.ForwardAtThreshold++
			}
			if in.Filtered > 0 {
				s.FilteredAtThreshold++
			}
		}
	}
	return s
}

// Hexbin produces the Figure 6b log-log density: x = filtered+1, y =
// forwarded+1 per edge (edges with either indication and >= minPaths
// paths).
func (fi *FilterInference) Hexbin(minPaths, cellsPerDecade int) []stats.Bin {
	h := stats.NewLogBin2D(cellsPerDecade)
	for _, in := range fi.Edges {
		if in.Paths < minPaths || (in.Forwarded == 0 && in.Filtered == 0) {
			continue
		}
		h.Add(float64(in.Filtered), float64(in.Forwarded))
	}
	return h.Bins()
}

// RenderFilterSummary renders the §4.4 percentages.
func RenderFilterSummary(s FilterSummary) string {
	t := stats.NewTable("Metric", "Value")
	t.Row("edges observed", s.TotalEdges)
	t.Row("w/ forward indication", stats.Pct(s.WithForwardSign, s.TotalEdges))
	t.Row("w/ filter indication", stats.Pct(s.WithFilterSign, s.TotalEdges))
	t.Row("edges >= min paths", s.EdgesAtThreshold)
	t.Row("forward @ threshold", stats.Pct(s.ForwardAtThreshold, s.EdgesAtThreshold))
	t.Row("filter @ threshold", stats.Pct(s.FilteredAtThreshold, s.EdgesAtThreshold))
	return t.String()
}
