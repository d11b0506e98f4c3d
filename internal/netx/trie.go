package netx

import (
	"net/netip"
)

// Trie is a binary radix trie mapping prefixes to values of type V:
// insert and longest-prefix match, which is all a FIB rebuilt from its
// slots needs. The zero value is not usable; call NewTrie. IPv4 and IPv6
// prefixes live in separate sub-tries so mixed-family use is safe.
type Trie[V any] struct {
	v4, v6 *trieNode[V]
	size   int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
	// pfx is only meaningful when set is true.
	pfx netip.Prefix
}

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] {
	return &Trie[V]{v4: &trieNode[V]{}, v6: &trieNode[V]{}}
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

func (t *Trie[V]) root(p netip.Prefix) *trieNode[V] {
	if p.Addr().Is4() {
		return t.v4
	}
	return t.v6
}

// Insert stores v under prefix p, replacing any previous value. It reports
// whether the prefix was newly added.
func (t *Trie[V]) Insert(p netip.Prefix, v V) bool {
	p = p.Masked()
	n := t.root(p)
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(p.Addr(), i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	added := !n.set
	n.val, n.set, n.pfx = v, true, p
	if added {
		t.size++
	}
	return added
}

// Lookup performs longest-prefix match for addr and returns the most
// specific covering prefix with its value.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var n *trieNode[V]
	if addr.Is4() {
		n = t.v4
	} else {
		n = t.v6
	}
	var (
		best    *trieNode[V]
		bestPfx netip.Prefix
	)
	for i := 0; ; i++ {
		if n.set {
			best, bestPfx = n, n.pfx
		}
		if i >= addr.BitLen() {
			break
		}
		n = n.child[bitAt(addr, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		var zero V
		return netip.Prefix{}, zero, false
	}
	return bestPfx, best.val, true
}
