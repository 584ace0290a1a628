// Package trie implements a path-compressed binary prefix trie keyed by
// netip.Prefix with longest-prefix-match lookup.
//
// The trie stores IPv4 and IPv6 entries in two independent trees (the
// families never alias). It is the substrate of the IPD engine's active
// range partition (a long-lived table, mutated by every split, join and
// collapse), of the validation LPM tables built from IPD output (§5.1 of the
// paper), and of the BGP RIB. The zero value of Trie is not ready to use;
// call New.
//
// Nodes are keyed on integers (netaddr.Key: the prefix left-aligned in two
// uint64 words plus its length). Each entry point converts its netip
// argument once; the walk itself descends by shift and mask, with
// containment and divergence taken from the leading-zero count of an XOR.
// Delete prunes valueless nodes that no longer branch, so the tree stays
// within twice its entry count however long it lives.
//
// Trie is not safe for concurrent mutation; concurrent readers are safe in
// the absence of writers.
package trie

import (
	"fmt"
	"net/netip"
	"strings"

	"ipd/internal/netaddr"
)

// node is a path-compressed trie node. Its key is the full CIDR range it
// represents; children (when present) are strictly longer prefixes contained
// in it. A node either carries a value (hasVal) or exists purely as a branch
// point; every valueless node other than a family root has two children.
type node[V any] struct {
	key    netaddr.Key
	child  [2]*node[V]
	val    V
	hasVal bool
}

// Trie is a longest-prefix-match table from CIDR prefixes to values of
// type V.
type Trie[V any] struct {
	root4 *node[V]
	root6 *node[V]
	len   int
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{
		root4: &node[V]{key: netaddr.KeyOf(netip.PrefixFrom(netip.IPv4Unspecified(), 0))},
		root6: &node[V]{key: netaddr.KeyOf(netip.PrefixFrom(netip.IPv6Unspecified(), 0))},
	}
}

// Len returns the number of prefixes with values in the trie.
func (t *Trie[V]) Len() int { return t.len }

// Nodes returns the number of allocated nodes across both family trees,
// including branch-only nodes without values (the telemetry memory proxy:
// resident trie state is linear in this count, not in Len).
func (t *Trie[V]) Nodes() int {
	return countNodes(t.root4) + countNodes(t.root6)
}

func countNodes[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.child[0]) + countNodes(n.child[1])
}

func (t *Trie[V]) rootFor(k netaddr.Key) *node[V] {
	if k.IsIPv6() {
		return t.root6
	}
	return t.root4
}

// prefixKey converts p to its trie key: 4-in-6 addresses are unmapped and
// the prefix is masked. ok is false when p (or its unmapped form) is
// invalid.
func prefixKey(p netip.Prefix) (netaddr.Key, bool) {
	p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits())
	if !p.IsValid() {
		return netaddr.Key{}, false
	}
	return netaddr.KeyOf(p), true
}

// dir is the child index selected by bit i of k.
func dir(k netaddr.Key, i int) int {
	if k.Bit(i) {
		return 1
	}
	return 0
}

// Insert sets the value for prefix p, replacing any existing value. p is
// masked defensively. Insert panics if p is invalid.
func (t *Trie[V]) Insert(p netip.Prefix, v V) {
	k, ok := prefixKey(p)
	if !ok {
		panic(fmt.Sprintf("trie: invalid prefix %v", p))
	}
	n := insertNode(t.rootFor(k), k)
	if !n.hasVal {
		t.len++
	}
	n.val = v
	n.hasVal = true
}

// insertNode finds or creates the node for k under n (which must contain k)
// and returns it.
func insertNode[V any](n *node[V], k netaddr.Key) *node[V] {
	for {
		if n.key == k {
			return n
		}
		// Descend by the bit just below n's prefix length.
		d := dir(k, n.key.Bits())
		c := n.child[d]
		if c == nil {
			c = &node[V]{key: k}
			n.child[d] = c
			return c
		}
		common := c.key.CommonLen(k)
		switch {
		case common == c.key.Bits():
			// c contains k: keep descending.
			n = c
		case common == k.Bits():
			// k sits between n and c: splice a node for k above c.
			nn := &node[V]{key: k}
			nn.child[dir(c.key, common)] = c
			n.child[d] = nn
			return nn
		default:
			// Diverge: k and c differ at bit common, so a branch node at
			// their common prefix takes them as its two children.
			branch := &node[V]{key: k.Truncate(common)}
			kn := &node[V]{key: k}
			branch.child[dir(c.key, common)] = c
			branch.child[dir(k, common)] = kn
			n.child[d] = branch
			return kn
		}
	}
}

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	if k, ok := prefixKey(p); ok {
		// Nothing longer than p contains p, so an entry at p is the
		// longest match for it.
		if n := t.lookup(k); n != nil && n.key.Bits() == k.Bits() {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Delete removes the value stored exactly at p and reports whether a value
// was present. The emptied node is pruned when it has fewer than two
// children, and so is a valueless parent left with a single child, so every
// valueless node below a family root keeps branching.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	k, ok := prefixKey(p)
	if !ok {
		return false
	}
	// gp -> parent -> n is the descent; gd and pd are the child slots taken.
	var gp, parent *node[V]
	var gd, pd int
	n := t.rootFor(k)
	for {
		nb := n.key.Bits()
		if n.key.CommonLen(k) < nb {
			return false
		}
		if nb == k.Bits() {
			break
		}
		d := dir(k, nb)
		if n.child[d] == nil {
			return false
		}
		gp, gd = parent, pd
		parent, pd = n, d
		n = n.child[d]
	}
	if !n.hasVal {
		return false
	}
	var zero V
	n.val, n.hasVal = zero, false
	t.len--
	if parent == nil {
		return true // family roots stay, valued or not
	}
	switch {
	case n.child[0] != nil && n.child[1] != nil:
		// Still a branch point.
	case n.child[0] != nil || n.child[1] != nil:
		parent.child[pd] = onlyChild(n)
	default:
		parent.child[pd] = nil
		// The parent may now be a valueless node with one child.
		if gp != nil && !parent.hasVal {
			gp.child[gd] = onlyChild(parent)
		}
	}
	return true
}

// onlyChild returns n's single child (nil when n has none).
func onlyChild[V any](n *node[V]) *node[V] {
	if n.child[0] != nil {
		return n.child[0]
	}
	return n.child[1]
}

// Lookup performs a longest-prefix match for addr and returns the most
// specific stored prefix containing it.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	if addr.IsValid() {
		if n := t.lookup(netaddr.KeyOfAddr(addr.Unmap())); n != nil {
			return n.key.Prefix(), n.val, true
		}
	}
	var zero V
	return netip.Prefix{}, zero, false
}

// LookupPrefix performs a longest-prefix match for the *whole* prefix p: the
// most specific stored prefix that contains all of p.
func (t *Trie[V]) LookupPrefix(p netip.Prefix) (netip.Prefix, V, bool) {
	if k, ok := prefixKey(p); ok {
		if n := t.lookup(k); n != nil {
			return n.key.Prefix(), n.val, true
		}
	}
	var zero V
	return netip.Prefix{}, zero, false
}

// lookup returns the deepest valued node containing k, or nil.
func (t *Trie[V]) lookup(k netaddr.Key) *node[V] {
	var best *node[V]
	for n := t.rootFor(k); n != nil; {
		nb := n.key.Bits()
		if n.key.CommonLen(k) < nb {
			break // n does not contain k
		}
		if n.hasVal {
			best = n
		}
		if nb == k.Bits() {
			break
		}
		n = n.child[dir(k, nb)]
	}
	return best
}

// Path returns the prefixes of the *stored* entries visited on the
// longest-prefix-match walk for addr, from the family root down to the match
// (the last element is what Lookup returns). Branch-only nodes are skipped:
// the path is the chain of real table entries that cover addr, which is what
// the explain API renders as the trie descent.
func (t *Trie[V]) Path(addr netip.Addr) []netip.Prefix {
	if !addr.IsValid() {
		return nil
	}
	k := netaddr.KeyOfAddr(addr.Unmap())
	var out []netip.Prefix
	for n := t.rootFor(k); n != nil && n.key.CommonLen(k) == n.key.Bits(); {
		if n.hasVal {
			out = append(out, n.key.Prefix())
		}
		if n.key.Bits() == k.Bits() {
			break
		}
		n = n.child[dir(k, n.key.Bits())]
	}
	return out
}

// Walk visits every stored (prefix, value) pair in netaddr.Key order: IPv4
// before IPv6, then by address, then shorter prefixes first. This is the
// trie's pre-order: a node precedes the longer prefixes it contains, and
// its 0-bit subtree precedes its 1-bit subtree. Returning false from fn
// stops the walk.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	if !walk(t.root4, fn) {
		return
	}
	walk(t.root6, fn)
}

func walk[V any](n *node[V], fn func(p netip.Prefix, v V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasVal && !fn(n.key.Prefix(), n.val) {
		return false
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}

// Prefixes returns all stored prefixes in Walk order (sorted by family,
// address, and length).
func (t *Trie[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.len)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

// String renders the stored entries one per line, for debugging and golden
// tests.
func (t *Trie[V]) String() string {
	var b strings.Builder
	t.Walk(func(p netip.Prefix, v V) bool {
		fmt.Fprintf(&b, "%v -> %v\n", p, v)
		return true
	})
	return b.String()
}
