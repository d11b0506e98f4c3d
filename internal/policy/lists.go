package policy

import (
	"net/netip"

	"bgpworms/internal/netx"
)

// PrefixRule is one prefix-list entry with router-style ge/le length
// bounds: a candidate matches if it is covered by Prefix and its length is
// within [Ge, Le]. Zero Ge/Le default to the entry prefix's own length
// (exact-match), mirroring IOS/JunOS semantics.
type PrefixRule struct {
	Prefix netip.Prefix
	Ge, Le int
}

// Matches reports whether p satisfies the rule.
func (r PrefixRule) Matches(p netip.Prefix) bool {
	if !netx.Covers(r.Prefix, p) {
		return false
	}
	ge, le := r.Ge, r.Le
	if ge == 0 {
		ge = r.Prefix.Bits()
	}
	if le == 0 {
		le = r.Prefix.Bits()
		if r.Ge != 0 {
			le = p.Addr().BitLen()
		}
	}
	return p.Bits() >= ge && p.Bits() <= le
}

// PrefixList is an ordered list of rules; first match wins, like vendor
// prefix-lists. An empty list matches nothing.
type PrefixList struct {
	Rules []PrefixRule
}

// AddRange appends a rule covering p with lengths in [ge, le].
func (l *PrefixList) AddRange(p netip.Prefix, ge, le int) *PrefixList {
	l.Rules = append(l.Rules, PrefixRule{Prefix: p.Masked(), Ge: ge, Le: le})
	return l
}

// Matches reports whether any rule matches p.
func (l *PrefixList) Matches(p netip.Prefix) bool {
	if l == nil {
		return false
	}
	for _, r := range l.Rules {
		if r.Matches(p) {
			return true
		}
	}
	return false
}
