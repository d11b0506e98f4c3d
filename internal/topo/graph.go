// Package topo models the AS-level Internet topology: business
// relationships between ASes (customer-provider and settlement-free
// peering), structural classification (stub / transit / tier-1), valley-free
// path checks, and import/export in the CAIDA serial-1 relationship format
// used by the paper's §4.4 filtering analysis.
package topo

import (
	"fmt"
	"sort"
)

// ASN is an autonomous system number.
type ASN = uint32

// Rel is the business relationship of a neighbor as seen from a local AS.
type Rel int8

// Relationship values. The direction convention is "what the neighbor is
// to me": RelProvider means the neighbor sells me transit.
const (
	RelNone     Rel = 0
	RelProvider Rel = 1
	RelCustomer Rel = -1
	RelPeer     Rel = 2
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	default:
		return "none"
	}
}

// Graph is an undirected AS graph with typed edges. The zero value is not
// usable; call NewGraph.
type Graph struct {
	// rel[a][b] is what b is to a.
	rel map[ASN]map[ASN]Rel
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{rel: make(map[ASN]map[ASN]Rel)}
}

func (g *Graph) set(a, b ASN, r Rel) {
	m := g.rel[a]
	if m == nil {
		m = make(map[ASN]Rel)
		g.rel[a] = m
	}
	m[b] = r
}

// ensure registers an AS even if it has no edges yet.
func (g *Graph) ensure(a ASN) {
	if g.rel[a] == nil {
		g.rel[a] = make(map[ASN]Rel)
	}
}

// AddAS registers asn with no links.
func (g *Graph) AddAS(asn ASN) { g.ensure(asn) }

// AddCustomerProvider records that cust buys transit from prov. Re-adding
// an edge overwrites its type.
func (g *Graph) AddCustomerProvider(cust, prov ASN) error {
	if cust == prov {
		return fmt.Errorf("topo: self link at AS%d", cust)
	}
	g.set(cust, prov, RelProvider)
	g.set(prov, cust, RelCustomer)
	return nil
}

// AddPeering records a settlement-free peering between a and b.
func (g *Graph) AddPeering(a, b ASN) error {
	if a == b {
		return fmt.Errorf("topo: self peering at AS%d", a)
	}
	g.set(a, b, RelPeer)
	g.set(b, a, RelPeer)
	return nil
}

// Relationship returns what b is to a.
func (g *Graph) Relationship(a, b ASN) Rel {
	return g.rel[a][b]
}

// HasLink reports whether a and b are adjacent.
func (g *Graph) HasLink(a, b ASN) bool { return g.rel[a][b] != RelNone }

// Neighbors returns all neighbors of a in ascending order.
func (g *Graph) Neighbors(a ASN) []ASN {
	m := g.rel[a]
	out := make([]ASN, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// neighborsOf returns neighbors of a with relationship r, sorted.
func (g *Graph) neighborsOf(a ASN, r Rel) []ASN {
	var out []ASN
	for n, rel := range g.rel[a] {
		if rel == r {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Providers returns the ASes a buys transit from.
func (g *Graph) Providers(a ASN) []ASN { return g.neighborsOf(a, RelProvider) }

// Customers returns the ASes buying transit from a.
func (g *Graph) Customers(a ASN) []ASN { return g.neighborsOf(a, RelCustomer) }

// ASes returns every registered AS in ascending order.
func (g *Graph) ASes() []ASN {
	out := make([]ASN, 0, len(g.rel))
	for a := range g.rel {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumASes returns the AS count.
func (g *Graph) NumASes() int { return len(g.rel) }

// NumLinks returns the undirected edge count.
func (g *Graph) NumLinks() int {
	n := 0
	for _, m := range g.rel {
		n += len(m)
	}
	return n / 2
}

// IsStub reports whether a has no customers (edge AS).
func (g *Graph) IsStub(a ASN) bool { return len(g.Customers(a)) == 0 }

// IsTransit reports whether a has at least one customer, the structural
// transit definition.
func (g *Graph) IsTransit(a ASN) bool { return !g.IsStub(a) }

// ValleyFree reports whether path (origin last, as in AS_PATH display
// order nearest-first) obeys Gao-Rexford export rules: once the path goes
// "down" (provider→customer) or crosses a peering link, it must continue
// down. The path is interpreted in propagation direction origin→observer,
// i.e. reversed from AS_PATH order.
func (g *Graph) ValleyFree(aspath []ASN) bool {
	if len(aspath) < 2 {
		return true
	}
	// Propagation order: origin first.
	prop := make([]ASN, len(aspath))
	for i, a := range aspath {
		prop[len(aspath)-1-i] = a
	}
	phase := 0 // 0=uphill, 1=after peak (peer crossed or downhill)
	for i := 0; i+1 < len(prop); i++ {
		from, to := prop[i], prop[i+1]
		rel := g.Relationship(from, to) // what `to` is to `from`
		switch rel {
		case RelProvider: // going up
			if phase != 0 {
				return false
			}
		case RelPeer:
			if phase != 0 {
				return false
			}
			phase = 1
		case RelCustomer: // going down
			phase = 1
		default:
			return false // not adjacent
		}
	}
	return true
}

// Degree returns a's total neighbor count.
func (g *Graph) Degree(a ASN) int { return len(g.rel[a]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for a, m := range g.rel {
		nm := make(map[ASN]Rel, len(m))
		for b, r := range m {
			nm[b] = r
		}
		out.rel[a] = nm
	}
	return out
}

// Links returns every undirected link once, with Rel expressed as what B
// is to A, ordered deterministically.
type Link struct {
	A, B ASN
	// RelBtoA is what B is to A (RelCustomer: B buys from A).
	RelBtoA Rel
}

// Links enumerates the graph's edges deterministically.
func (g *Graph) Links() []Link {
	var out []Link
	for _, a := range g.ASes() {
		for _, b := range g.Neighbors(a) {
			if b < a {
				continue
			}
			out = append(out, Link{A: a, B: b, RelBtoA: g.rel[a][b]})
		}
	}
	return out
}
