package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"syscall"
	"time"

	"ipd"
)

// Input sizes. The steady stream is the default tier-1 scenario at 20k
// sampled flows/min with the generator's default 10% IPv6 share; the
// flood is examples/spoofed-scan's mix.
const (
	steadyFlows  = 20000
	steadyWarm   = 45 * time.Minute
	steadyWindow = 100 * time.Minute // >= 100 stage-2 cycles per pass

	floodLegit    = 5000
	floodScan     = 25000 // never-repeating spoofed /32 sources per minute
	floodIngress  = 4
	floodWarm     = 20 * time.Minute
	floodWindow   = 60 * time.Minute
	floodIPStates = 12000 // per-IP cap, governor budget

	// The collector's server ingests each one-minute stattime bucket, and
	// runs the cycle, in one hold of its lock while the 16k-record ingest
	// queue absorbs the stream: a bucket of the full steady rate stalls it
	// long enough to shed at the rates this box sustains, so the collector
	// carries 12k flows/min at a fixed 80k records/s.
	collectorFlows  = 12000
	collectorWindow = 35 * time.Minute
	clusterWindow   = 35 * time.Minute

	expiryE = 2 * time.Minute // the engine's e, for the repeat-share property
)

// world is the synthetic scenario every workload draws from.
type world struct {
	scen *ipd.SimScenario
	seed int64
}

func newWorld(seed int64) (*world, error) {
	scen, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		return nil, err
	}
	return &world{scen: scen, seed: seed}, nil
}

// genConfig is the load-test generator setting: diurnal modulation off,
// default noise and IPv6 share, the run's seed.
func (w *world) genConfig(flows int) ipd.SimGenConfig {
	c := ipd.DefaultSimGenConfig()
	c.FlowsPerMinute = flows
	c.Seed = w.seed
	c.Diurnal = false
	return c
}

// stream emits the records of [from, to) of the steady stream, or of the
// flood mix when flood is set and the record falls at or after floodFrom.
func (w *world) stream(from, to time.Time, flows int, flood bool, floodFrom time.Time, fn func(ipd.Record)) error {
	var scan []ipd.Record
	var scanMinute time.Time
	var ifaces []ipd.Ingress
	rng := newSplitMix(uint64(w.seed) ^ 0xbadc0de)
	if flood {
		all := w.scen.Topo.Interfaces()
		if len(all) < floodIngress {
			return fmt.Errorf("topology has %d interfaces, the flood needs %d", len(all), floodIngress)
		}
		for i := 0; i < floodIngress; i++ {
			ifaces = append(ifaces, all[(i*len(all))/floodIngress].In)
		}
	}
	// flushScan emits the pending scan records due at or before ts (all of
	// them when ts is zero), legit records first on equal timestamps.
	flushScan := func(ts time.Time) {
		for len(scan) > 0 && (ts.IsZero() || scan[0].Ts.Before(ts)) {
			fn(scan[0])
			scan = scan[1:]
		}
	}
	nextScan := func(minute time.Time) {
		if !flood || minute.Before(floodFrom) || !minute.Before(to) {
			return
		}
		scan = scanMinuteRecords(minute, rng, ifaces)
		scanMinute = minute
	}
	err := w.scen.Stream(from, to, w.genConfig(flows), func(rec ipd.Record) bool {
		if flood {
			if m := rec.Ts.Truncate(time.Minute); !m.Equal(scanMinute) {
				flushScan(time.Time{})
				nextScan(m)
			}
			flushScan(rec.Ts)
		}
		fn(rec)
		return true
	})
	flushScan(time.Time{})
	return err
}

// scanMinuteRecords fabricates one minute of the spoofed scan flood: random
// /32 sources in 200.0.0.0/8 (outside every scenario AS), one flow each,
// striped over the flood ingresses so no range ever sees a prevalent one.
func scanMinuteRecords(start time.Time, rng *splitMix, ifaces []ipd.Ingress) []ipd.Record {
	step := time.Minute / floodScan
	out := make([]ipd.Record, floodScan)
	for i := range out {
		v := rng.next()
		out[i] = ipd.Record{
			Ts:      start.Add(time.Duration(i) * step),
			Src:     netip.AddrFrom4([4]byte{200, byte(v >> 16), byte(v >> 8), byte(v)}),
			Dst:     netip.AddrFrom4([4]byte{100, 64, byte(v >> 32), byte(v >> 24)}),
			In:      ifaces[i%len(ifaces)],
			Bytes:   40,
			Packets: 1,
		}
	}
	return out
}

// splitMix is splitmix64, the deterministic generator the examples use.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digester hashes a record sequence through the binary trace encoding, so
// two processes (or two runs) can show they saw the same input.
type digester struct {
	h hash.Hash
	w *ipd.TraceWriter
}

func newDigester() *digester {
	h := sha256.New()
	return &digester{h: h, w: ipd.NewTraceWriter(h)}
}

func (d *digester) add(rec ipd.Record) error { return d.w.Write(rec) }

func (d *digester) sum() (string, error) {
	if err := d.w.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(d.h.Sum(nil))[:16], nil
}

// propsSpan is how much of a window the input properties are measured
// over: long enough to be stable, short enough to keep preparation cheap.
const propsSpan = 20 * time.Minute

// props measures the input properties a locality or repetition claim
// would rest on, from the generated records themselves, over the first
// propsSpan of the window.
type props struct {
	until     time.Time // records at or after this are not measured
	n, v6     int
	repeats   int // records whose source was seen within the previous e
	adjacent  int // records in the same /24 (v6 /48) as the record before
	lastSeen  map[netip.Addr]time.Time
	prevAgg   netip.Prefix
	minute    time.Time
	perMinute map[netip.Addr]struct{}
	minutes   int
	distinct  int
}

func newProps(windowStart time.Time) *props {
	return &props{
		until:     windowStart.Add(propsSpan),
		lastSeen:  make(map[netip.Addr]time.Time),
		perMinute: make(map[netip.Addr]struct{}),
	}
}

func aggregate(a netip.Addr) netip.Prefix {
	bits := 24
	if a.Is6() {
		bits = 48
	}
	p, _ := a.Prefix(bits)
	return p
}

func (p *props) add(rec ipd.Record) {
	if !rec.Ts.Before(p.until) {
		return
	}
	p.n++
	if rec.Src.Is6() {
		p.v6++
	}
	if last, ok := p.lastSeen[rec.Src]; ok && rec.Ts.Sub(last) <= expiryE && rec.Ts.Sub(last) >= -expiryE {
		p.repeats++
	}
	if last, ok := p.lastSeen[rec.Src]; !ok || rec.Ts.After(last) {
		p.lastSeen[rec.Src] = rec.Ts
	}
	agg := aggregate(rec.Src)
	if agg == p.prevAgg {
		p.adjacent++
	}
	p.prevAgg = agg
	if m := rec.Ts.Truncate(time.Minute); !m.Equal(p.minute) {
		p.closeMinute()
		p.minute = m
		// Forget sources too old to count as repeats, bounding the map.
		for a, t := range p.lastSeen {
			if m.Sub(t) > 2*expiryE {
				delete(p.lastSeen, a)
			}
		}
	}
	p.perMinute[rec.Src] = struct{}{}
}

func (p *props) closeMinute() {
	if len(p.perMinute) > 0 {
		p.minutes++
		p.distinct += len(p.perMinute)
		clear(p.perMinute)
	}
}

func (p *props) String() string {
	p.closeMinute()
	if p.n == 0 {
		return "no records"
	}
	f := float64(p.n)
	return fmt.Sprintf("first %v: records %d, ipv6 share %.4f, repeat-within-e share %.4f, same-/24(/48)-adjacent share %.4f, distinct sources/min %.0f",
		propsSpan, p.n, float64(p.v6)/f, float64(p.repeats)/f, float64(p.adjacent)/f, float64(p.distinct)/float64(max(p.minutes, 1)))
}

// encodeTrace is a binary trace being built in memory.
type encodeTrace struct {
	buf bytes.Buffer
	w   *ipd.TraceWriter
	n   int
}

func newEncodeTrace() *encodeTrace {
	t := &encodeTrace{}
	t.w = ipd.NewTraceWriter(&t.buf)
	return t
}

func (t *encodeTrace) add(rec ipd.Record) error {
	t.n++
	return t.w.Write(rec)
}

// bytes returns the encoded trace in memory outside the Go heap, so that
// the input does not raise the collector's heap goal: the engine then
// collects as often as it would reading the trace from a file.
func (t *encodeTrace) bytes() ([]byte, error) {
	if err := t.w.Flush(); err != nil {
		return nil, err
	}
	b, err := syscall.Mmap(-1, 0, t.buf.Len(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map trace buffer: %w", err)
	}
	copy(b, t.buf.Bytes())
	t.buf = bytes.Buffer{}
	return b, nil
}
