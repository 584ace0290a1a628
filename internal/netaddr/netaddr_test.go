package netaddr

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestMask(t *testing.T) {
	cases := []struct {
		addr string
		bits int
		want string
	}{
		{"192.168.17.42", 24, "192.168.17.0/24"},
		{"192.168.17.42", 28, "192.168.17.32/28"},
		{"192.168.17.42", 0, "0.0.0.0/0"},
		{"10.0.0.1", 8, "10.0.0.0/8"},
		{"2001:db8::1", 48, "2001:db8::/48"},
		{"2001:db8:ffff::1", 32, "2001:db8::/32"},
	}
	for _, c := range cases {
		got, ok := Mask(netip.MustParseAddr(c.addr), c.bits)
		if !ok {
			t.Fatalf("Mask(%s,%d) not ok", c.addr, c.bits)
		}
		if got != mustPrefix(t, c.want) {
			t.Errorf("Mask(%s,%d) = %v, want %v", c.addr, c.bits, got, c.want)
		}
	}
}

func TestMaskUnmaps4In6(t *testing.T) {
	a := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.9").As16())
	p, ok := Mask(a, 24)
	if !ok || p != mustPrefix(t, "192.0.2.0/24") {
		t.Fatalf("Mask(4-in-6) = %v ok=%v, want 192.0.2.0/24", p, ok)
	}
}

func TestMaskInvalid(t *testing.T) {
	if _, ok := Mask(netip.Addr{}, 24); ok {
		t.Error("Mask(zero addr) should fail")
	}
	if _, ok := Mask(netip.MustParseAddr("1.2.3.4"), 33); ok {
		t.Error("Mask(v4, 33) should fail")
	}
	if _, ok := Mask(netip.MustParseAddr("1.2.3.4"), -1); ok {
		t.Error("Mask(v4, -1) should fail")
	}
}

func TestParentChildrenRoundTrip(t *testing.T) {
	p := mustPrefix(t, "203.0.112.0/20")
	lo, hi, ok := Children(p)
	if !ok {
		t.Fatal("Children not ok")
	}
	if lo != mustPrefix(t, "203.0.112.0/21") || hi != mustPrefix(t, "203.0.120.0/21") {
		t.Fatalf("Children = %v, %v", lo, hi)
	}
	for _, c := range []netip.Prefix{lo, hi} {
		pp, ok := Parent(c)
		if !ok || pp != p {
			t.Errorf("Parent(%v) = %v ok=%v, want %v", c, pp, ok, p)
		}
	}
	if s, ok := Sibling(lo); !ok || s != hi {
		t.Errorf("Sibling(%v) = %v, want %v", lo, s, hi)
	}
	if s, ok := Sibling(hi); !ok || s != lo {
		t.Errorf("Sibling(%v) = %v, want %v", hi, s, lo)
	}
	if !IsLowChild(lo) || IsLowChild(hi) {
		t.Errorf("IsLowChild(%v)=%v IsLowChild(%v)=%v", lo, IsLowChild(lo), hi, IsLowChild(hi))
	}
}

func TestRootEdgeCases(t *testing.T) {
	root := mustPrefix(t, "0.0.0.0/0")
	if _, ok := Parent(root); ok {
		t.Error("Parent(/0) should fail")
	}
	if _, ok := Sibling(root); ok {
		t.Error("Sibling(/0) should fail")
	}
	if !IsLowChild(root) {
		t.Error("IsLowChild(/0) should be true")
	}
	host := mustPrefix(t, "1.2.3.4/32")
	if _, _, ok := Children(host); ok {
		t.Error("Children(/32) should fail")
	}
	host6 := mustPrefix(t, "2001:db8::1/128")
	if _, _, ok := Children(host6); ok {
		t.Error("Children(/128) should fail")
	}
}

func TestChildrenIPv6(t *testing.T) {
	p := mustPrefix(t, "2001:db8::/32")
	lo, hi, ok := Children(p)
	if !ok {
		t.Fatal("Children(v6) not ok")
	}
	if lo != mustPrefix(t, "2001:db8::/33") || hi != mustPrefix(t, "2001:db8:8000::/33") {
		t.Fatalf("Children(v6) = %v, %v", lo, hi)
	}
}

func randomPrefix4(r *rand.Rand) netip.Prefix {
	var b [4]byte
	r.Read(b[:])
	bits := r.Intn(33)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
}

func randomPrefix6(r *rand.Rand) netip.Prefix {
	var b [16]byte
	r.Read(b[:])
	bits := r.Intn(129)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

func TestPropertySplitPartition(t *testing.T) {
	// The two children of any splittable prefix must partition it: both are
	// contained, they do not overlap, and their parent is the original.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var p netip.Prefix
		if i%2 == 0 {
			p = randomPrefix4(r)
		} else {
			p = randomPrefix6(r)
		}
		lo, hi, ok := Children(p)
		if !ok {
			continue
		}
		if !p.Contains(lo.Addr()) || !p.Contains(hi.Addr()) {
			t.Fatalf("children of %v escape parent: %v %v", p, lo, hi)
		}
		if lo.Overlaps(hi) {
			t.Fatalf("children of %v overlap: %v %v", p, lo, hi)
		}
		if pp, _ := Parent(lo); pp != p {
			t.Fatalf("Parent(lo(%v)) = %v", p, pp)
		}
		if pp, _ := Parent(hi); pp != p {
			t.Fatalf("Parent(hi(%v)) = %v", p, pp)
		}
	}
}

// TestKeyRoundTripHostRoutes pins the boundary cases the property test only
// hits probabilistically: an IPv6 /128 used to overflow the key's prefix
// length field (int8) and reconstruct as an invalid prefix.
func TestKeyRoundTripHostRoutes(t *testing.T) {
	for _, s := range []string{
		"2001:db8::1/128", "::/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
		"2001:db8::/127", "255.255.255.255/32", "0.0.0.0/0", "::/0",
	} {
		p := netip.MustParsePrefix(s)
		if got := KeyOf(p).Prefix(); got != p {
			t.Errorf("KeyOf(%v).Prefix() = %v, want %v", p, got, p)
		}
	}
}

func TestPropertyKeyRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 33
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), bits).Masked()
		return KeyOf(p).Prefix() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(raw [16]byte, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 129
		p := netip.PrefixFrom(netip.AddrFrom16(raw), bits).Masked()
		return KeyOf(p).Prefix() == p
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderingAndFamily(t *testing.T) {
	k4 := KeyOf(mustPrefix(t, "255.255.255.255/32"))
	k6 := KeyOf(mustPrefix(t, "::/0"))
	if !k4.Less(k6) || k6.Less(k4) {
		t.Error("IPv4 keys must sort before IPv6 keys")
	}
	a := KeyOf(mustPrefix(t, "10.0.0.0/8"))
	b := KeyOf(mustPrefix(t, "10.0.0.0/9"))
	if !a.Less(b) {
		t.Error("shorter prefix must sort before longer at same address")
	}
	if a.Bits() != 8 || b.Bits() != 9 {
		t.Errorf("Bits: got %d, %d", a.Bits(), b.Bits())
	}
	if a.IsIPv6() || !k6.IsIPv6() {
		t.Error("IsIPv6 mismatch")
	}
	if a.String() != "10.0.0.0/8" {
		t.Errorf("String = %q", a.String())
	}
}

func TestKeyDistinguishesFamilies(t *testing.T) {
	// 0.0.0.0/0 and ::/0 must not collide.
	if KeyOf(mustPrefix(t, "0.0.0.0/0")) == KeyOf(mustPrefix(t, "::/0")) {
		t.Error("v4 and v6 roots collide")
	}
}

func TestAddrCount(t *testing.T) {
	if got := AddrCount(mustPrefix(t, "10.0.0.0/8")); got != 1<<24 {
		t.Errorf("AddrCount(/8) = %v", got)
	}
	if got := AddrCount(mustPrefix(t, "1.2.3.4/32")); got != 1 {
		t.Errorf("AddrCount(/32) = %v", got)
	}
	if got := AddrCount(mustPrefix(t, "2001:db8::/64")); got != 1.8446744073709552e19 {
		t.Errorf("AddrCount(v6 /64) = %v", got)
	}
}

func TestNthAddrAndSubPrefix(t *testing.T) {
	p := mustPrefix(t, "198.51.100.0/24")
	if got := NthAddr(p, 0); got != netip.MustParseAddr("198.51.100.0") {
		t.Errorf("NthAddr 0 = %v", got)
	}
	if got := NthAddr(p, 255); got != netip.MustParseAddr("198.51.100.255") {
		t.Errorf("NthAddr 255 = %v", got)
	}
	if got := NthSubPrefix(p, 28, 3); got != mustPrefix(t, "198.51.100.48/28") {
		t.Errorf("NthSubPrefix = %v", got)
	}
	if got := SubPrefixCount(p, 28); got != 16 {
		t.Errorf("SubPrefixCount = %d", got)
	}
	if got := SubPrefixCount(p, 20); got != 0 {
		t.Errorf("SubPrefixCount(too short) = %d", got)
	}
}

func TestNthAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NthAddr out of range should panic")
		}
	}()
	NthAddr(mustPrefix(t, "198.51.100.0/24"), 256)
}

func TestHostBits(t *testing.T) {
	if HostBits(mustPrefix(t, "1.0.0.0/8")) != 32 {
		t.Error("HostBits v4")
	}
	if HostBits(mustPrefix(t, "2001:db8::/32")) != 128 {
		t.Error("HostBits v6")
	}
}

func TestBitAt(t *testing.T) {
	a := netip.MustParseAddr("128.0.0.1")
	if !BitAt(a, 0) {
		t.Error("bit 0 of 128.0.0.1 should be set")
	}
	if BitAt(a, 1) {
		t.Error("bit 1 of 128.0.0.1 should be clear")
	}
	if !BitAt(a, 31) {
		t.Error("bit 31 of 128.0.0.1 should be set")
	}
	a6 := netip.MustParseAddr("8000::")
	if !BitAt(a6, 0) {
		t.Error("bit 0 of 8000:: should be set")
	}

	// Key.Bit must agree with BitAt at every position of both families,
	// on host keys and on prefix keys.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		for _, p := range []netip.Prefix{randomPrefix4(r), randomPrefix6(r)} {
			hk := KeyOfAddr(p.Addr())
			pk := KeyOf(p)
			for bit := 0; bit < HostBits(p); bit++ {
				want := BitAt(p.Addr(), bit)
				if hk.Bit(bit) != want || pk.Bit(bit) != want {
					t.Fatalf("bit %d of %v: Key.Bit = %v/%v, BitAt = %v", bit, p, hk.Bit(bit), pk.Bit(bit), want)
				}
			}
		}
	}
}

// TestKeyCommonLenAndTruncate checks the integer prefix arithmetic against
// the netip reference: CommonLen is the length of the longest prefix
// containing both keys, and Truncate is Mask.
func TestKeyCommonLenAndTruncate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		var a, b netip.Prefix
		if i%2 == 0 {
			a, b = randomPrefix4(r), randomPrefix4(r)
		} else {
			a, b = randomPrefix6(r), randomPrefix6(r)
			if i%4 == 1 {
				// Share the first word so the divergence lands in the
				// second one.
				a16, b16 := a.Addr().As16(), b.Addr().As16()
				copy(b16[:8], a16[:8])
				b = netip.PrefixFrom(netip.AddrFrom16(b16), b.Bits()).Masked()
			}
		}
		want := min(a.Bits(), b.Bits())
		for bit := 0; bit < want; bit++ {
			if BitAt(a.Addr(), bit) != BitAt(b.Addr(), bit) {
				want = bit
				break
			}
		}
		ka, kb := KeyOf(a), KeyOf(b)
		if got := ka.CommonLen(kb); got != want {
			t.Fatalf("CommonLen(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := kb.CommonLen(ka); got != want {
			t.Fatalf("CommonLen(%v, %v) = %d, want %d", b, a, got, want)
		}
		n := r.Intn(a.Bits() + 1)
		m, _ := Mask(a.Addr(), n)
		if got := ka.Truncate(n); got != KeyOf(m) {
			t.Fatalf("Truncate(%v, %d) = %v, want %v", a, n, got, m)
		}
	}
	if got := KeyOf(mustPrefix(t, "10.0.0.0/8")).CommonLen(KeyOf(mustPrefix(t, "10.0.0.0/8"))); got != 8 {
		t.Errorf("CommonLen of equal /8 keys = %d, want 8", got)
	}
	if got := KeyOfAddr(netip.MustParseAddr("::1")).CommonLen(KeyOfAddr(netip.MustParseAddr("::1"))); got != 128 {
		t.Errorf("CommonLen of equal /128 keys = %d, want 128", got)
	}
}
