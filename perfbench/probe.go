package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipd"
)

// layer names one kind of call the harness makes into the system.
type layer int

const (
	lRead          layer = iota // TraceReader.Read
	lRecord                     // one cmd/ipd per-record step (node.handle)
	lObserve                    // Engine.Feed that ran no cycle
	lFeedCycle                  // Engine.Feed that crossed a T boundary
	lAdvance                    // the 5-minute bin advance (AdvanceTo)
	lSnapshot                   // Mapped + WriteOutputSnapshot
	lHealth                     // exporter-health hook
	lWorkload                   // workload-profiler hook
	lJournal                    // Journal.Record (OnEvent)
	lTimelineEvent              // TimelineCollector.ObserveEvent (OnEvent)
	lTimelineCycle              // TimelineCollector.OnCycle
	lDatagram                   // Collector.HandleDatagram
	lOffer                      // IngestQueue.Offer
	lRange                      // Server.Range
	lMapped                     // Server.Mapped
	lDecode                     // checkpoint restore
	lEncode                     // MarshalState + envelope
	lSave                       // CheckpointManager.Save
	lApply                      // delta core Apply callback
	lShip                       // DeltaSender.Offer
	numLayers
)

var layerNames = [numLayers]string{
	"read", "record", "observe", "feed_cycle", "advance", "snapshot", "health",
	"workload", "journal", "timeline_event", "timeline_cycle", "datagram",
	"offer", "range", "mapped", "decode", "encode", "save", "apply", "ship",
}

// children lists the layers whose calls run inside another layer's call,
// for self time.
var children = map[layer][]layer{
	lRecord:    {lAdvance, lSnapshot, lHealth, lWorkload, lObserve, lFeedCycle},
	lFeedCycle: {lJournal, lTimelineEvent, lTimelineCycle},
	lAdvance:   {lJournal, lTimelineEvent, lTimelineCycle},
	lDatagram:  {lOffer},
	lApply:     {lRecord, lEncode, lSave},
}

// perRecord layers get spans only in the chain of a sampled record; the
// others are rare (per cycle, batch or checkpoint) and always get one.
var perRecord = [numLayers]bool{
	lRead: true, lRecord: true, lObserve: true, lHealth: true, lWorkload: true,
	lJournal: true, lTimelineEvent: true, lOffer: true, lRange: true, lShip: true,
}

const (
	// spanSampleN is the harness's 1-in-N record sampling. It keeps the
	// spans of a 15-second traced run well under spanCap, so that every
	// cycle, batch and checkpoint span is kept.
	spanSampleN = 4096
	spanCap     = 1 << 16 // spans kept in memory
	traceSample = 1024    // the binaries' -trace-sample default, for ipd.Tracer
)

// probe sums busy time and calls per layer, and keeps spans: the traced
// run's instrument. A nil probe is the untraced run: every method is a
// no-op, so the timed window pays one nil check per call site.
type probe struct {
	busy  [numLayers]atomic.Int64
	calls [numLayers]atomic.Int64

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
}

// spanCtx is the chain a call is made in: the span the call's own span
// hangs under (0 = root) and whether the chain serves a sampled record, so
// that per-record calls keep spans. Each goroutine that drives a layer
// holds its own, so that calls on one goroutine never hang under another's
// span.
type spanCtx struct {
	parent  uint64
	sampled bool
}

func newProbe() *probe { return &probe{} }

func (p *probe) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap books the call of l that started at t0 in chain sc and returns the
// time it ended, which is where the next back-to-back call starts.
func (p *probe) lap(l layer, t0 time.Time, sc spanCtx) time.Time {
	if p == nil {
		return t0
	}
	now := time.Now()
	p.book(l, t0, now, sc, 0)
	return now
}

// book accounts one call of l over [t0, t1] in chain sc, keeping its span
// when l is rare or sc serves a sampled record.
func (p *probe) book(l layer, t0, t1 time.Time, sc spanCtx, item uint64) {
	p.tally(l, t1.Sub(t0), 1)
	if sc.sampled || !perRecord[l] {
		p.addSpan(0, layerNames[l], t0, t1, sc.parent, item)
	}
}

// tally adds calls of l that took d together, without a span.
func (p *probe) tally(l layer, d time.Duration, calls int64) {
	p.busy[l].Add(int64(d))
	p.calls[l].Add(calls)
}

// open starts the chain of a call that others run inside — a cycle,
// batch, checkpoint or sampled record — by reserving its span id. It
// returns the root chain when p is nil.
func (p *probe) open(sampled bool) spanCtx {
	if p == nil {
		return spanCtx{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	return spanCtx{parent: p.nextID, sampled: sampled}
}

// close keeps the span of a chain that open started, over [t0, t1], under
// parent.
func (p *probe) close(sc spanCtx, name string, t0, t1 time.Time, parent, item uint64) {
	if p == nil || sc.parent == 0 {
		return
	}
	p.addSpan(sc.parent, name, t0, t1, parent, item)
}

// addSpan keeps one span under id (0 allocates one), or counts it as
// dropped once the span cap is reached.
func (p *probe) addSpan(id uint64, name string, t0, t1 time.Time, parent, item uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.spans) >= spanCap {
		p.dropped++
		return
	}
	if id == 0 {
		p.nextID++
		id = p.nextID
	}
	p.spans = append(p.spans, span{name: name, start: t0, end: t1, id: id, parent: parent, item: item})
}

// mean returns l's mean call time in ns (0 without calls).
func (p *probe) mean(l layer) float64 {
	c := p.calls[l].Load()
	if c == 0 {
		return 0
	}
	return float64(p.busy[l].Load()) / float64(c)
}

// self returns l's busy time minus that of the layers called inside it.
func (p *probe) self(l layer) time.Duration {
	d := p.busy[l].Load()
	for _, c := range children[l] {
		d -= p.busy[c].Load()
	}
	return time.Duration(d)
}

// spanSelfTimes sums the self time of the kept spans by name.
func (p *probe) spanSelfTimes() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range p.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range p.spans {
		out[s.name] += selfTime(s, kids[s.id])
	}
	return out
}

// report prints per-layer busy time, self time and call counts.
func (p *probe) report(w io.Writer) {
	fmt.Fprintf(w, "# %-16s %12s %12s %12s %14s\n", "layer", "calls", "busy_ms", "self_ms", "sampled_self_ms")
	st := p.spanSelfTimes()
	for l := layer(0); l < numLayers; l++ {
		c := p.calls[l].Load()
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "# %-16s %12d %12.3f %12.3f %14.3f\n", layerNames[l], c,
			ms(time.Duration(p.busy[l].Load())), ms(p.self(l)), ms(st[layerNames[l]]))
	}
	p.mu.Lock()
	fmt.Fprintf(w, "# spans kept %d, dropped at the %d cap %d\n", len(p.spans), spanCap, p.dropped)
	p.mu.Unlock()
}

// writeChrome writes the harness spans in Chrome trace-event format (the
// format ipd.WriteChromeTrace uses for the engine's own spans).
func (p *probe) writeChrome(path string) error {
	p.mu.Lock()
	spans := append([]span(nil), p.spans...)
	p.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	type args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Item   uint64 `json:"item,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].start
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid := 1
		if !perRecord[layerIndex(s.name)] {
			tid = 2
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 2, Tid: tid,
			Ts:   float64(s.start.Sub(epoch)) / 1e3,
			Dur:  float64(s.end.Sub(s.start)) / 1e3,
			Args: args{ID: s.id, Parent: s.parent, Item: s.item},
		})
	}
	return writeFile(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	})
}

func layerIndex(name string) layer {
	for l, n := range layerNames {
		if n == name {
			return layer(l)
		}
	}
	return lRecord
}

// engineSpans aggregates the engine tracer's spans (bin, observe and the
// stage-2 phases) as they complete; the tracer's own ring keeps the tail
// for the Chrome file.
type engineSpans struct {
	mu      sync.Mutex
	wall    map[string]time.Duration
	count   map[string]int
	samples map[string][]float64 // per-record phases' span walls, ns
	cost    time.Duration        // wall time an empty span records
}

func newEngineSpans() *engineSpans {
	return &engineSpans{
		wall:    make(map[string]time.Duration),
		count:   make(map[string]int),
		samples: make(map[string][]float64),
		cost:    spanCost(),
	}
}

// newEngineTracer returns a tracer (cmd/ipd's -trace-out settings) whose
// spans es aggregates.
func newEngineTracer() (*ipd.Tracer, *engineSpans) {
	es := newEngineSpans()
	tr := ipd.NewTracer(ipd.TracerOptions{Capacity: 8192, SampleN: traceSample})
	tr.SetOnSpan(es.observe)
	return tr, es
}

func (es *engineSpans) observe(s ipd.TraceSpan) {
	name := s.Phase.String()
	es.mu.Lock()
	defer es.mu.Unlock()
	es.wall[name] += s.Wall
	es.count[name]++
	if s.Phase.Stage1() {
		es.samples[name] = append(es.samples[name], float64(s.Wall))
	}
}

// spanCost measures the wall time an empty engine span records — the
// tracer's own clock reads — so that per-record phase means can be
// reported net of it.
func spanCost() time.Duration {
	tr := ipd.NewTracer(ipd.TracerOptions{Capacity: 64, SampleN: 1})
	walls := make([]float64, 0, 2000)
	tr.SetOnSpan(func(s ipd.TraceSpan) { walls = append(walls, float64(s.Wall)) })
	for i := 0; i < cap(walls); i++ {
		tr.Begin(ipd.TracePhase(0), 0).End(0)
	}
	return time.Duration(median(walls))
}

// perCall returns a per-record phase's median span wall time in ns, net of
// the span's own cost. The median, because a sampled span that a
// preemption or a bucket flush landed in would dominate a mean.
func (es *engineSpans) perCall(phase string) float64 {
	es.mu.Lock()
	defer es.mu.Unlock()
	if len(es.samples[phase]) == 0 {
		return 0
	}
	return max(0, median(es.samples[phase])-float64(es.cost))
}

// perCycle returns a phase's total wall time per stage-2 cycle in ms.
func (es *engineSpans) perCycle(phase string) float64 {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.count["cycle"] == 0 {
		return 0
	}
	return ms(es.wall[phase]) / float64(es.count["cycle"])
}

func writeEngineTrace(path string, tr *ipd.Tracer) error {
	return writeFile(path, func(w io.Writer) error {
		return ipd.WriteChromeTrace(w, tr.Recorder().Tail(0))
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
