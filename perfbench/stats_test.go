package main

import (
	"testing"
	"time"
)

func TestHasTail(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{9, 50, false},      // even p50 leaves only 4.5 beyond it
		{20, 50, true},      // 10 beyond p50
		{99, 90, false},     // p90 leaves 9.9
		{100, 90, true},     // p90 leaves exactly 10
		{999, 99, false},    // p99 leaves 9.99
		{1000, 99, true},    // p99 leaves 10
		{10000, 99.9, true}, // p99.9 leaves 10
		{9999, 99.9, false},
	}
	for _, c := range cases {
		if got := hasTail(c.n, c.p); got != c.want {
			t.Errorf("hasTail(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := quantile(append([]float64(nil), v...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestScheduleTimesFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, rate: 1000} // one event per ms
	if got := s.due(5); !got.Equal(t0.Add(5 * time.Millisecond)) {
		t.Fatalf("due(5) = %v", got)
	}
	// Event 5 issued 3ms late and done 1ms after issue: its latency counts
	// the 3ms it waited behind the stall, not just the 1ms of service.
	issued := s.due(5).Add(3 * time.Millisecond)
	if got := s.latency(5, issued.Add(time.Millisecond)); got != 4*time.Millisecond {
		t.Errorf("latency = %v, want 4ms", got)
	}
	if got := s.lateness(5, issued); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := s.lateness(5, s.due(5).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early issue lateness = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := span{name: "record", start: at(0), end: at(100)}
	children := []span{
		{start: at(10), end: at(30)},   // 20
		{start: at(20), end: at(40)},   // overlaps the first: +10
		{start: at(90), end: at(120)},  // clipped to the parent: +10
		{start: at(150), end: at(160)}, // outside: ignored
	}
	if got := selfTime(parent, children); got != 60*time.Millisecond {
		t.Errorf("selfTime = %v, want 60ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
}

func TestHeapDelta(t *testing.T) {
	if got := heapDelta(100<<20, 164<<20); got != 64 {
		t.Errorf("heapDelta = %v, want 64", got)
	}
	// A pass that freed more than it kept reports a negative delta, not a
	// wrapped unsigned one.
	if got := heapDelta(100<<20, 99<<20); got != -1 {
		t.Errorf("heapDelta = %v, want -1", got)
	}
}

func TestProbeSelfSubtractsChildLayers(t *testing.T) {
	p := newProbe()
	t0 := time.Unix(0, 0)
	p.book(lDatagram, t0, t0.Add(100), spanCtx{}, 0)
	p.book(lOffer, t0.Add(10), t0.Add(40), spanCtx{}, 0)
	if got := p.self(lDatagram); got != 70 {
		t.Errorf("self(datagram) = %v, want 70ns", got)
	}
}

func TestProbeSpansFollowTheirChain(t *testing.T) {
	p := newProbe()
	t0 := time.Unix(0, 0)
	rec := p.open(true) // a sampled record's chain
	p.book(lObserve, t0, t0.Add(10), rec, 7)
	p.book(lHealth, t0, t0.Add(5), spanCtx{}, 8)            // unsampled record: no span
	p.book(lSnapshot, t0, t0.Add(20), spanCtx{}, 0)         // rare call: a root span
	p.book(lShip, t0, t0.Add(3), spanCtx{sampled: true}, 9) // sampled, at the root
	p.close(rec, "record", t0, t0.Add(30), 0, 7)
	parents := map[string]uint64{}
	for _, s := range p.spans {
		parents[s.name] = s.parent
	}
	want := map[string]uint64{"observe": rec.parent, "snapshot": 0, "ship": 0, "record": 0}
	if len(parents) != len(want) {
		t.Fatalf("spans %v, want %v", parents, want)
	}
	for name, parent := range want {
		if got, ok := parents[name]; !ok || got != parent {
			t.Errorf("span %s parent = %d (kept %v), want %d", name, got, ok, parent)
		}
	}
	if p.calls[lHealth].Load() != 1 || p.busy[lHealth].Load() != 5 {
		t.Error("an unsampled call's busy time was not summed")
	}
}
