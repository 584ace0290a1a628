// Package netaddr provides CIDR arithmetic on top of net/netip for the IPD
// range machinery: masking addresses to a maximum prefix length, walking the
// binary prefix tree (parent, sibling, children), canonical uint128 keys, and
// address-count weights.
//
// All functions treat a prefix as a node of the binary tree rooted at the /0
// of its address family (the "IPD tree" of §3.2 of the paper). IPv4 and IPv6
// live in separate trees; mixing families is a programming error and is
// reported via ok=false results or panics, as documented per function.
package netaddr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
)

// HostBits returns the number of bits of the address family of p: 32 for
// IPv4, 128 for IPv6. p must be valid.
func HostBits(p netip.Prefix) int {
	if p.Addr().Is4() {
		return 32
	}
	return 128
}

// Mask returns addr masked (truncated) to length bits, i.e. the CIDR range of
// that length containing addr. 4-in-6 addresses are unmapped to plain IPv4
// first so that the two families never alias. ok is false if addr is invalid
// or bits is out of range for the family.
func Mask(addr netip.Addr, bits int) (netip.Prefix, bool) {
	if !addr.IsValid() {
		return netip.Prefix{}, false
	}
	addr = addr.Unmap()
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return p, true
}

// Parent returns the prefix one bit shorter that contains p. ok is false for
// the root (/0).
func Parent(p netip.Prefix) (netip.Prefix, bool) {
	if p.Bits() == 0 {
		return netip.Prefix{}, false
	}
	pp, err := p.Addr().Prefix(p.Bits() - 1)
	if err != nil {
		return netip.Prefix{}, false
	}
	return pp, true
}

// Children returns the two prefixes one bit longer that partition p: the
// low (0-bit) child first, then the high (1-bit) child. ok is false when p is
// already a host route and cannot be split.
func Children(p netip.Prefix) (lo, hi netip.Prefix, ok bool) {
	bits := p.Bits()
	if bits >= HostBits(p) {
		return netip.Prefix{}, netip.Prefix{}, false
	}
	lo = netip.PrefixFrom(p.Addr(), bits+1)
	hiAddr := setBit(p.Addr(), bits)
	hi = netip.PrefixFrom(hiAddr, bits+1)
	return lo, hi, true
}

// Sibling returns the prefix that shares p's parent. ok is false for the
// root.
func Sibling(p netip.Prefix) (netip.Prefix, bool) {
	if p.Bits() == 0 {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(flipBit(p.Addr(), p.Bits()-1), p.Bits()), true
}

// IsLowChild reports whether p is the 0-bit child of its parent. The root
// reports true.
func IsLowChild(p netip.Prefix) bool {
	if p.Bits() == 0 {
		return true
	}
	return !bitAt(p.Addr(), p.Bits()-1)
}

// BitAt returns bit i (0-based from the most significant bit) of addr.
func BitAt(addr netip.Addr, i int) bool { return bitAt(addr, i) }

func bitAt(addr netip.Addr, i int) bool {
	if addr.Is4() {
		b := addr.As4()
		return b[i/8]&(1<<(7-i%8)) != 0
	}
	b := addr.As16()
	return b[i/8]&(1<<(7-i%8)) != 0
}

func setBit(addr netip.Addr, i int) netip.Addr {
	if addr.Is4() {
		b := addr.As4()
		b[i/8] |= 1 << (7 - i%8)
		return netip.AddrFrom4(b)
	}
	b := addr.As16()
	b[i/8] |= 1 << (7 - i%8)
	return netip.AddrFrom16(b)
}

func flipBit(addr netip.Addr, i int) netip.Addr {
	if addr.Is4() {
		b := addr.As4()
		b[i/8] ^= 1 << (7 - i%8)
		return netip.AddrFrom4(b)
	}
	b := addr.As16()
	b[i/8] ^= 1 << (7 - i%8)
	return netip.AddrFrom16(b)
}

// Key is a canonical comparable identifier for a prefix: family, length and
// the masked address bits. It is suitable as a map key and sorts IPv4 before
// IPv6, then by address, then by length.
//
// The address is held left-aligned in two words (an IPv4 address occupies
// the top 32 bits of hi), so bit tests, containment and common-prefix
// lengths are shifts and masks rather than byte-array walks.
type Key struct {
	hi, lo uint64
	// bits is the prefix length. uint8, not int8: an IPv6 /128 must
	// round-trip, and 128 overflows int8.
	bits uint8
	v6   bool
}

// KeyOf returns the canonical key for p. p must be valid and already masked;
// Masked() is applied defensively.
func KeyOf(p netip.Prefix) Key {
	p = p.Masked()
	k := KeyOfAddr(p.Addr())
	k.bits = uint8(p.Bits())
	return k
}

// KeyOfAddr returns the host-route key of addr: a /32 for IPv4, a /128 for
// IPv6. It does not unmap 4-in-6 addresses.
func KeyOfAddr(a netip.Addr) Key {
	if a.Is4() {
		b := a.As4()
		return Key{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32, bits: 32}
	}
	b := a.As16()
	return Key{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:]), bits: 128, v6: true}
}

// Prefix reconstructs the prefix identified by k.
func (k Key) Prefix() netip.Prefix {
	if !k.v6 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.hi>>32))
		return netip.PrefixFrom(netip.AddrFrom4(b), int(k.bits))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), int(k.bits))
}

// Bit returns bit i (0-based from the most significant bit) of the key's
// address; it agrees with BitAt on the prefix address. i must be below the
// family's address width.
func (k Key) Bit(i int) bool {
	if i < 64 {
		return k.hi>>(63-i)&1 != 0
	}
	return k.lo>>(127-i)&1 != 0
}

// CommonLen returns the length of the longest prefix containing both k and
// o: the number of leading address bits they share, capped at the shorter
// of the two lengths. Both keys must be of the same family.
func (k Key) CommonLen(o Key) int {
	n := 128
	if x := k.hi ^ o.hi; x != 0 {
		n = bits.LeadingZeros64(x)
	} else if x := k.lo ^ o.lo; x != 0 {
		n = 64 + bits.LeadingZeros64(x)
	}
	return min(n, int(k.bits), int(o.bits))
}

// Truncate returns the key of the length-n prefix containing k. n must not
// exceed k.Bits().
func (k Key) Truncate(n int) Key {
	if n < 64 {
		k.hi &^= ^uint64(0) >> n
		k.lo = 0
	} else {
		k.lo &^= ^uint64(0) >> (n - 64)
	}
	k.bits = uint8(n)
	return k
}

// Bits returns the prefix length stored in the key.
func (k Key) Bits() int { return int(k.bits) }

// IsIPv6 reports the address family stored in the key.
func (k Key) IsIPv6() bool { return k.v6 }

// Less orders keys: IPv4 before IPv6, then address, then shorter prefixes
// first.
func (k Key) Less(o Key) bool {
	if k.v6 != o.v6 {
		return !k.v6
	}
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	if k.lo != o.lo {
		return k.lo < o.lo
	}
	return k.bits < o.bits
}

func (k Key) String() string { return k.Prefix().String() }

// AddrCount returns the number of addresses covered by p as a float64 (exact
// for IPv4 and for IPv6 prefixes no wider than /64; IPv6 prefixes shorter
// than /64 saturate, which is fine for weighting purposes).
func AddrCount(p netip.Prefix) float64 {
	host := HostBits(p) - p.Bits()
	if host >= 1024 {
		return math.Inf(1)
	}
	return math.Pow(2, float64(host))
}

// NthAddr returns the address at offset n inside the IPv4 prefix p. It panics
// if p is not IPv4 or n is out of range; generators use it to enumerate
// synthetic clients.
func NthAddr(p netip.Prefix, n uint64) netip.Addr {
	if !p.Addr().Is4() {
		panic("netaddr: NthAddr requires an IPv4 prefix")
	}
	host := 32 - p.Bits()
	if host < 64 && n >= 1<<uint(host) {
		panic(fmt.Sprintf("netaddr: offset %d out of range for %v", n, p))
	}
	b := p.Masked().Addr().As4()
	base := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	base += n
	return netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
}

// NthSubPrefix returns the n-th sub-prefix of length bits inside the IPv4
// prefix p (n counted from the low end). It panics on family or range
// violations.
func NthSubPrefix(p netip.Prefix, bits int, n uint64) netip.Prefix {
	if bits < p.Bits() || bits > 32 {
		panic(fmt.Sprintf("netaddr: sub-prefix length %d invalid inside %v", bits, p))
	}
	step := uint64(1) << uint(32-bits)
	return netip.PrefixFrom(NthAddr(p, n*step), bits)
}

// SubPrefixCount returns how many sub-prefixes of length bits fit inside the
// IPv4 prefix p.
func SubPrefixCount(p netip.Prefix, bits int) uint64 {
	if bits < p.Bits() || bits > 32 {
		return 0
	}
	return 1 << uint(bits-p.Bits())
}
