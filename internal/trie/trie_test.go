package trie

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"ipd/internal/netaddr"
)

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestInsertGet(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "a")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "b")
	tr.Insert(mustPrefix(t, "10.1.2.0/24"), "c")
	tr.Insert(mustPrefix(t, "192.168.0.0/16"), "d")
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	for p, want := range map[string]string{
		"10.0.0.0/8":     "a",
		"10.1.0.0/16":    "b",
		"10.1.2.0/24":    "c",
		"192.168.0.0/16": "d",
	} {
		got, ok := tr.Get(mustPrefix(t, p))
		if !ok || got != want {
			t.Errorf("Get(%s) = %q ok=%v, want %q", p, got, ok, want)
		}
	}
	if _, ok := tr.Get(mustPrefix(t, "10.2.0.0/16")); ok {
		t.Error("Get of absent prefix should fail")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[int]()
	p := mustPrefix(t, "10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestLookupLPM(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "ten-one")
	tr.Insert(mustPrefix(t, "10.1.2.240/28"), "deep")

	cases := []struct {
		addr, wantP, wantV string
	}{
		{"10.1.2.241", "10.1.2.240/28", "deep"},
		{"10.1.2.1", "10.1.0.0/16", "ten-one"},
		{"10.9.9.9", "10.0.0.0/8", "ten"},
		{"8.8.8.8", "0.0.0.0/0", "default"},
	}
	for _, c := range cases {
		p, v, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || p != mustPrefix(t, c.wantP) || v != c.wantV {
			t.Errorf("Lookup(%s) = %v %q ok=%v, want %s %q", c.addr, p, v, ok, c.wantP, c.wantV)
		}
	}
}

func TestLookupMissWithoutDefault(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside all entries should miss")
	}
	if _, _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Error("Lookup of invalid addr should miss")
	}
}

func TestFamiliesIndependent(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "v4")
	tr.Insert(mustPrefix(t, "2001:db8::/32"), "v6")
	if _, v, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != "v6" {
		t.Errorf("v6 lookup = %q ok=%v", v, ok)
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("2001:dead::1")); ok {
		t.Error("v6 lookup must not fall through to the v4 default")
	}
	if _, v, ok := tr.Lookup(netip.MustParseAddr("1.2.3.4")); !ok || v != "v4" {
		t.Errorf("v4 lookup = %q ok=%v", v, ok)
	}
}

func TestLookup4In6(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "192.0.2.0/24"), "doc")
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.77").As16())
	if _, v, ok := tr.Lookup(mapped); !ok || v != "doc" {
		t.Errorf("4-in-6 lookup = %q ok=%v, want doc", v, ok)
	}
}

func TestDelete(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "a")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "b")
	if !tr.Delete(mustPrefix(t, "10.1.0.0/16")) {
		t.Fatal("Delete existing returned false")
	}
	if tr.Delete(mustPrefix(t, "10.1.0.0/16")) {
		t.Fatal("double Delete returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// LPM must now fall back to the /8.
	p, v, ok := tr.Lookup(netip.MustParseAddr("10.1.2.3"))
	if !ok || p != mustPrefix(t, "10.0.0.0/8") || v != "a" {
		t.Errorf("Lookup after delete = %v %q", p, v)
	}
	if tr.Delete(mustPrefix(t, "11.0.0.0/8")) {
		t.Error("Delete of absent prefix returned true")
	}
}

func TestLookupPrefix(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "a")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "b")
	p, v, ok := tr.LookupPrefix(mustPrefix(t, "10.1.2.0/24"))
	if !ok || p != mustPrefix(t, "10.1.0.0/16") || v != "b" {
		t.Errorf("LookupPrefix(/24) = %v %q ok=%v", p, v, ok)
	}
	// Exact match counts.
	p, _, ok = tr.LookupPrefix(mustPrefix(t, "10.1.0.0/16"))
	if !ok || p != mustPrefix(t, "10.1.0.0/16") {
		t.Errorf("LookupPrefix(exact) = %v ok=%v", p, ok)
	}
	// A shorter query than any entry misses.
	if _, _, ok := tr.LookupPrefix(mustPrefix(t, "0.0.0.0/0")); ok {
		t.Error("LookupPrefix(/0) should miss")
	}
}

func TestWalkAndPrefixes(t *testing.T) {
	tr := New[int]()
	ins := []string{"10.0.0.0/8", "10.128.0.0/9", "192.168.1.0/24", "2001:db8::/32"}
	for i, s := range ins {
		tr.Insert(mustPrefix(t, s), i)
	}
	got := tr.Prefixes()
	if len(got) != len(ins) {
		t.Fatalf("Prefixes len = %d", len(got))
	}
	want := []string{"10.0.0.0/8", "10.128.0.0/9", "192.168.1.0/24", "2001:db8::/32"}
	for i, w := range want {
		if got[i] != mustPrefix(t, w) {
			t.Errorf("Prefixes[%d] = %v, want %s", i, got[i], w)
		}
	}
	// Early-stop walk.
	count := 0
	tr.Walk(func(netip.Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early-stop walk visited %d", count)
	}
}

// TestRandomizedAgainstLinearScan cross-checks trie LPM against a brute-force
// reference over random insert/delete/lookup workloads.
func TestRandomizedAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New[int]()
	ref := map[netip.Prefix]int{}
	randPfx := func() netip.Prefix {
		var b [4]byte
		r.Read(b[:])
		bits := 4 + r.Intn(29) // /4 .. /32
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	for i := 0; i < 5000; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			p := randPfx()
			tr.Insert(p, i)
			ref[p] = i
		case 5: // delete
			p := randPfx()
			want := false
			if _, ok := ref[p]; ok {
				want = true
				delete(ref, p)
			}
			if got := tr.Delete(p); got != want {
				t.Fatalf("Delete(%v) = %v, want %v", p, got, want)
			}
		default: // lookup
			var a [4]byte
			r.Read(a[:])
			addr := netip.AddrFrom4(a)
			var bestP netip.Prefix
			bestV, found := 0, false
			for p, v := range ref {
				if p.Contains(addr) && (!found || p.Bits() > bestP.Bits()) {
					bestP, bestV, found = p, v, true
				}
			}
			gp, gv, gok := tr.Lookup(addr)
			if gok != found || (found && (gp != bestP || gv != bestV)) {
				t.Fatalf("Lookup(%v) = %v %d %v, want %v %d %v", addr, gp, gv, gok, bestP, bestV, found)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
		}
	}
}

func TestRandomizedIPv6(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int]()
	ref := map[netip.Prefix]int{}
	for i := 0; i < 1500; i++ {
		var b [16]byte
		r.Read(b[:])
		// Cluster under 2001:db8::/32 half the time to force deep branches.
		if r.Intn(2) == 0 {
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		bits := 16 + r.Intn(113)
		p := netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
		tr.Insert(p, i)
		ref[p] = i
	}
	for i := 0; i < 1000; i++ {
		var a [16]byte
		r.Read(a[:])
		if r.Intn(2) == 0 {
			a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		addr := netip.AddrFrom16(a)
		var bestP netip.Prefix
		bestV, found := 0, false
		for p, v := range ref {
			if p.Contains(addr) && (!found || p.Bits() > bestP.Bits()) {
				bestP, bestV, found = p, v, true
			}
		}
		gp, gv, gok := tr.Lookup(addr)
		if gok != found || (found && (gp != bestP || gv != bestV)) {
			t.Fatalf("v6 Lookup(%v) = %v %d %v, want %v %d %v", addr, gp, gv, gok, bestP, bestV, found)
		}
	}
}

func TestStringRendering(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "x")
	if got, want := tr.String(), "10.0.0.0/8 -> x\n"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pfxs := make([]netip.Prefix, 1<<16)
	for i := range pfxs {
		var buf [4]byte
		r.Read(buf[:])
		pfxs[i] = netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked()
	}
	b.ResetTimer()
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		tr.Insert(pfxs[i%len(pfxs)], i)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 1<<16; i++ {
		var buf [4]byte
		r.Read(buf[:])
		tr.Insert(netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked(), i)
	}
	addrs := make([]netip.Addr, 1<<12)
	for i := range addrs {
		var buf [4]byte
		r.Read(buf[:])
		addrs[i] = netip.AddrFrom4(buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func TestPath(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "ten-one")
	tr.Insert(mustPrefix(t, "10.1.2.240/28"), "deep")
	tr.Insert(mustPrefix(t, "192.168.0.0/16"), "private")

	cases := []struct {
		addr string
		want []string
	}{
		// The full descent visits every stored ancestor, ending at the
		// LPM match.
		{"10.1.2.241", []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.240/28"}},
		{"10.1.9.9", []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"}},
		{"10.9.9.9", []string{"0.0.0.0/0", "10.0.0.0/8"}},
		{"8.8.8.8", []string{"0.0.0.0/0"}},
		// Branch-only nodes between stored entries are skipped.
		{"192.168.1.1", []string{"0.0.0.0/0", "192.168.0.0/16"}},
	}
	for _, c := range cases {
		got := tr.Path(netip.MustParseAddr(c.addr))
		if len(got) != len(c.want) {
			t.Errorf("Path(%s) = %v, want %v", c.addr, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != mustPrefix(t, c.want[i]) {
				t.Errorf("Path(%s) = %v, want %v", c.addr, got, c.want)
				break
			}
		}
		// The last path element must agree with Lookup.
		p, _, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got[len(got)-1] != p {
			t.Errorf("Path(%s) ends at %v, Lookup returns %v", c.addr, got[len(got)-1], p)
		}
	}

	if got := tr.Path(netip.Addr{}); got != nil {
		t.Errorf("Path of invalid addr = %v, want nil", got)
	}
	// v6 walks are independent of v4 entries.
	if got := tr.Path(netip.MustParseAddr("2001:db8::1")); got != nil {
		t.Errorf("Path(v6) with only v4 entries = %v, want nil", got)
	}
}

// randomMixedPrefix draws an IPv4 or IPv6 prefix of random length. Half of
// the draws cluster under 10.0.0.0/8 or 2001:db8::/32 so entries nest and
// diverge deep in the tree.
func randomMixedPrefix(r *rand.Rand) netip.Prefix {
	if r.Intn(2) == 0 {
		var b [4]byte
		r.Read(b[:])
		if r.Intn(2) == 0 {
			b[0] = 10
		}
		return netip.PrefixFrom(netip.AddrFrom4(b), r.Intn(33)).Masked()
	}
	var b [16]byte
	r.Read(b[:])
	if r.Intn(2) == 0 {
		b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	}
	return netip.PrefixFrom(netip.AddrFrom16(b), r.Intn(129)).Masked()
}

// TestWalkOrderIsKeyOrder pins the property Prefixes, the engine snapshot
// and the checkpoint encoder rely on instead of sorting: the pre-order walk
// yields netaddr.Key order, across random mixed-family inserts and deletes.
func TestWalkOrderIsKeyOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		ref := map[netip.Prefix]bool{}
		var inserted []netip.Prefix
		for i := 0; i < 60; i++ {
			if len(inserted) > 0 && r.Intn(4) == 0 {
				p := inserted[r.Intn(len(inserted))]
				tr.Delete(p)
				delete(ref, p)
				continue
			}
			p := randomMixedPrefix(r)
			tr.Insert(p, i)
			ref[p] = true
			inserted = append(inserted, p)
		}
		want := make([]netip.Prefix, 0, len(ref))
		for p := range ref {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool { return netaddr.KeyOf(want[i]).Less(netaddr.KeyOf(want[j])) })
		got := tr.Prefixes()
		if len(got) != len(want) {
			t.Fatalf("seed %d: walk yields %d prefixes, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: walk[%d] = %v, want %v (Key order)", seed, i, got[i], want[i])
			}
		}
	}
}

// partition is a trie holding a partition of the IPv4 space, maintained by
// the engine's split (replace a range by its two halves) and join (replace
// two sibling ranges by their parent) moves.
type partition struct {
	tr     *Trie[int]
	ranges map[netip.Prefix]bool
}

func newPartition() *partition {
	pt := &partition{tr: New[int](), ranges: map[netip.Prefix]bool{}}
	root := netip.MustParsePrefix("0.0.0.0/0")
	pt.tr.Insert(root, 0)
	pt.ranges[root] = true
	return pt
}

func (pt *partition) split(p netip.Prefix) {
	lo, hi, ok := netaddr.Children(p)
	if !ok {
		return
	}
	pt.tr.Delete(p)
	delete(pt.ranges, p)
	for _, c := range []netip.Prefix{lo, hi} {
		pt.tr.Insert(c, c.Bits())
		pt.ranges[c] = true
	}
}

// join merges p with its sibling when both are ranges.
func (pt *partition) join(p netip.Prefix) {
	sib, ok := netaddr.Sibling(p)
	if !ok || !pt.ranges[sib] {
		return
	}
	parent, _ := netaddr.Parent(p)
	for _, c := range []netip.Prefix{p, sib} {
		pt.tr.Delete(c)
		delete(pt.ranges, c)
	}
	pt.tr.Insert(parent, parent.Bits())
	pt.ranges[parent] = true
}

// TestPartitionChurnStaysCompact drives random split/join churn and checks
// that pruning keeps the tree within 2*Len nodes and that LPM still finds
// the one range covering each sampled address.
func TestPartitionChurnStaysCompact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pt := newPartition()
	pick := func() netip.Prefix {
		var b [4]byte
		r.Read(b[:])
		p, _, ok := pt.tr.Lookup(netip.AddrFrom4(b))
		if !ok {
			t.Fatalf("partition has a hole at %v", netip.AddrFrom4(b))
		}
		return p
	}
	for step := 0; step < 20000; step++ {
		// Split-biased early so the partition grows to a few thousand
		// ranges, join-biased late so it shrinks again.
		if r.Intn(20000) > step {
			if p := pick(); p.Bits() < 24 {
				pt.split(p)
			}
		} else {
			pt.join(pick())
		}
		if step%500 != 0 {
			continue
		}
		if got, want := pt.tr.Len(), len(pt.ranges); got != want {
			t.Fatalf("step %d: Len = %d, want %d", step, got, want)
		}
		if n, l := pt.tr.Nodes(), pt.tr.Len(); n > 2*l {
			t.Fatalf("step %d: %d nodes for %d ranges, want <= %d", step, n, l, 2*l)
		}
		for i := 0; i < 200; i++ {
			var b [4]byte
			r.Read(b[:])
			addr := netip.AddrFrom4(b)
			var want []netip.Prefix
			for p := range pt.ranges {
				if p.Contains(addr) {
					want = append(want, p)
				}
			}
			got, v, ok := pt.tr.Lookup(addr)
			if len(want) != 1 || !ok || got != want[0] || v != got.Bits() {
				t.Fatalf("step %d: Lookup(%v) = %v/%d/%v, linear scan finds %v", step, addr, got, v, ok, want)
			}
		}
	}
}

// TestDeletePrunesToRoots checks that deleting every entry leaves only the
// two family roots.
func TestDeletePrunesToRoots(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := New[int]()
	var ps []netip.Prefix
	for i := 0; i < 2000; i++ {
		p := randomMixedPrefix(r)
		tr.Insert(p, i)
		ps = append(ps, p)
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for _, p := range ps {
		tr.Delete(p)
		if n, l := tr.Nodes(), tr.Len(); n > 2*l+2 {
			t.Fatalf("%d nodes for %d entries after deleting %v", n, l, p)
		}
	}
	if tr.Len() != 0 || tr.Nodes() != 2 {
		t.Fatalf("after deleting everything: Len %d, Nodes %d; want 0 and the 2 roots", tr.Len(), tr.Nodes())
	}
}

// TestEdgeLengths exercises the word boundaries of the integer keys: IPv6
// /0, /63, /64, /65, /127 and /128, and IPv4 /0 and /32, through Get,
// Lookup, LookupPrefix and Delete.
func TestEdgeLengths(t *testing.T) {
	addr6 := netip.MustParseAddr("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff")
	addr4 := netip.MustParseAddr("198.51.100.255")
	var entries []netip.Prefix
	for _, bits := range []int{0, 63, 64, 65, 127, 128} {
		entries = append(entries, netip.PrefixFrom(addr6, bits).Masked())
	}
	for _, bits := range []int{0, 32} {
		entries = append(entries, netip.PrefixFrom(addr4, bits).Masked())
	}
	tr := New[int]()
	for _, p := range entries {
		tr.Insert(p, p.Bits())
	}
	for _, p := range entries {
		if v, ok := tr.Get(p); !ok || v != p.Bits() {
			t.Errorf("Get(%v) = %d %v", p, v, ok)
		}
		if got, _, ok := tr.LookupPrefix(p); !ok || got != p {
			t.Errorf("LookupPrefix(%v) = %v %v, want itself", p, got, ok)
		}
	}
	// The neighbour just across each boundary falls back to the next
	// shorter entry.
	lookups := []struct{ addr, want string }{
		{"2001:db8:ffff:ffff:ffff:ffff:ffff:ffff", "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff/128"},
		{"2001:db8:ffff:ffff:ffff:ffff:ffff:fffe", "2001:db8:ffff:ffff:ffff:ffff:ffff:fffe/127"},
		{"2001:db8:ffff:ffff:ffff:ffff:ffff:fffc", "2001:db8:ffff:ffff:8000::/65"},
		{"2001:db8:ffff:ffff:7fff::", "2001:db8:ffff:ffff::/64"},
		{"2001:db8:ffff:fffe::", "2001:db8:ffff:fffe::/63"},
		{"2001:db8:ffff:fffc::", "::/0"},
		{"198.51.100.255", "198.51.100.255/32"},
		{"198.51.100.254", "0.0.0.0/0"},
	}
	for _, c := range lookups {
		got, _, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got != netip.MustParsePrefix(c.want) {
			t.Errorf("Lookup(%s) = %v %v, want %s", c.addr, got, ok, c.want)
		}
	}
	if got, _, ok := tr.LookupPrefix(netip.MustParsePrefix("2001:db8:ffff:ffff::/66")); !ok ||
		got != netip.MustParsePrefix("2001:db8:ffff:ffff::/64") {
		t.Errorf("LookupPrefix(/66) = %v %v, want the /64", got, ok)
	}
	// Delete from the middle outward; every other entry stays reachable.
	for i, p := range []int{3, 2, 4, 5, 1, 0, 7, 6} {
		if !tr.Delete(entries[p]) {
			t.Fatalf("Delete(%v) = false", entries[p])
		}
		if tr.Delete(entries[p]) {
			t.Fatalf("second Delete(%v) = true", entries[p])
		}
		if tr.Len() != len(entries)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
		tr.Walk(func(q netip.Prefix, v int) bool {
			if got, ok := tr.Get(q); !ok || got != v || v != q.Bits() {
				t.Errorf("after deleting %v: Get(%v) = %d %v", entries[p], q, got, ok)
			}
			return true
		})
	}
	if tr.Nodes() != 2 {
		t.Errorf("Nodes = %d after deleting everything, want 2", tr.Nodes())
	}
}

// partitionOf builds a partition of the IPv4 space with about n ranges by
// repeatedly splitting the range under a random address, plus the sample
// addresses to look up.
func partitionOf(n int) (*Trie[int], []netip.Addr) {
	r := rand.New(rand.NewSource(1))
	pt := newPartition()
	for pt.tr.Len() < n {
		var b [4]byte
		r.Read(b[:])
		if p, _, _ := pt.tr.Lookup(netip.AddrFrom4(b)); p.Bits() < 28 {
			pt.split(p)
		}
	}
	addrs := make([]netip.Addr, 1<<12)
	for i := range addrs {
		var b [4]byte
		r.Read(b[:])
		addrs[i] = netip.AddrFrom4(b)
	}
	return pt.tr, addrs
}

// TestLookupDoesNotAllocate pins the hot-path property the benchmark
// reports: a longest-prefix match allocates nothing.
func TestLookupDoesNotAllocate(t *testing.T) {
	tr, addrs := partitionOf(2000)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.Lookup(addrs[i%len(addrs)])
		i++
	}); n != 0 {
		t.Fatalf("Lookup allocates %v times per call, want 0", n)
	}
}

// BenchmarkTrieLookupPartition is the engine's per-record LPM: a lookup in
// a ~2k-range partition of the IPv4 space.
func BenchmarkTrieLookupPartition(b *testing.B) {
	tr, addrs := partitionOf(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}
