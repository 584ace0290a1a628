package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ipd"
)

// The cmd/ipd flag defaults the node is built with.
const (
	binLen   = 5 * time.Minute // -bin
	cycleT   = time.Minute     // -t
	journalN = 4096            // -journal-cap
	tlWindow = 512             // -timeline-window
	wlTopK   = 32              // -workload-topk
	wlDepth  = 10              // -workload-maxdepth
	ckptN    = 10              // -checkpoint-every
	maxJump  = 7 * 24 * time.Hour
)

// engineConfig is cmd/ipd's default engine configuration; governed adds
// examples/spoofed-scan's per-IP cap, governor and sketch tier.
func engineConfig(governed bool) (ipd.Config, *ipd.Governor, error) {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.01
	cfg.NCidrFactor6 = 1e-8
	cfg.NCidrFloor = 4
	cfg.Q = 0.95
	cfg.CIDRMax4 = 28
	cfg.CIDRMax6 = 48
	cfg.T = cycleT
	cfg.E = 2 * time.Minute
	if !governed {
		return cfg, nil, nil
	}
	cfg.MaxIPStates = floodIPStates
	cfg.Sketch = true
	cfg.SketchWidth = 4096
	cfg.SketchDepth = 4
	cfg.SketchExactMargin = 0.05
	gov, err := ipd.NewGovernor(ipd.GovernorConfig{MaxIPStates: floodIPStates, SketchTier: true})
	if err != nil {
		return cfg, nil, err
	}
	cfg.Governor = gov
	return cfg, gov, nil
}

// cycleStats accumulates the end-of-cycle samples of one pass.
type cycleStats struct {
	n                          int
	ranges, trieNodes, ipState float64 // sums, for means
	ipPeak, sketchedPeak       int
	degradedCycles             int
}

func (c *cycleStats) add(s ipd.CycleSample) {
	c.n++
	c.ranges += float64(s.Ranges)
	c.trieNodes += float64(s.TrieNodes)
	c.ipState += float64(s.IPStates)
	c.ipPeak = max(c.ipPeak, s.IPStates)
	c.sketchedPeak = max(c.sketchedPeak, s.SketchedRanges)
	if s.Governed && s.Governor.State != ipd.GovernorNormal {
		c.degradedCycles++
	}
}

// attachments are the observers the binaries turn on by default: the
// in-memory journal ring, the timeline, exporter health and the workload
// profiler. They are wired into cfg exactly as cmd/ipd and ipd-collector
// wire them, with the harness's probes and gate capture around the
// callbacks.
type attachments struct {
	journal *ipd.Journal
	health  *ipd.ExporterHealth
	wl      *ipd.WorkloadProfiler
	tl      *ipd.TimelineCollector
	gov     *ipd.Governor
	cycles  cycleStats
	events  []ipd.Event // captured on gate passes only
	sc      spanCtx     // chain of the node call the engine's callbacks run in
}

func attach(cfg *ipd.Config, gov *ipd.Governor, p *probe, capture bool) *attachments {
	a := &attachments{gov: gov}
	a.journal = ipd.NewJournal(ipd.JournalOptions{Capacity: journalN})
	a.health = ipd.NewExporterHealth(ipd.ExporterHealthOptions{StaleAfter: 3 * time.Minute, SkewMax: 5 * time.Minute})
	cfg.Coverage = a.health.IngressCoverage
	a.wl = ipd.NewWorkloadProfiler(ipd.WorkloadOptions{TopK: wlTopK, MaxDepth: wlDepth, Skew: a.health.RouterSkew})
	a.tl = ipd.NewTimelineCollector(ipd.TimelineOptions{Window: tlWindow})
	a.tl.SetExporterHealth(a.health)
	a.tl.SetWorkload(a.wl)
	cfg.OnEvent = func(ev ipd.Event) {
		t0 := p.start()
		a.journal.Record(ev)
		t1 := p.lap(lJournal, t0, a.sc)
		a.tl.ObserveEvent(ev)
		p.lap(lTimelineEvent, t1, a.sc)
		if capture {
			a.events = append(a.events, ev)
		}
	}
	cfg.OnCycle = func(s ipd.CycleSample) []ipd.Alert {
		a.cycles.add(s)
		t0 := p.start()
		alerts := a.tl.OnCycle(s)
		p.lap(lTimelineCycle, t0, a.sc)
		return alerts
	}
	cfg.OnCycleEvery = 1
	return a
}

func (a *attachments) registerMetrics(reg *ipd.TelemetryRegistry) {
	a.journal.RegisterMetrics(reg)
	if a.gov != nil {
		a.gov.RegisterMetrics(reg)
	}
	a.tl.RegisterMetrics(reg)
	a.health.RegisterMetrics(reg)
	a.wl.RegisterMetrics(reg)
}

// node is the cmd/ipd trace and cluster-core loop: an engine behind one
// mutex, fed record by record, with the 5-minute output bin advance and the
// per-record exporter-health and workload hooks. It copies that package-main
// glue; drift_test.go pins it to the binary's output.
type node struct {
	mu        sync.Mutex
	eng       *ipd.Engine
	att       *attachments
	newReader func(io.Reader) *ipd.TraceReader
	nextBin   time.Time
	out       io.Writer
	p         *probe
}

// newNode builds the node; state, when non-nil, is a checkpoint to restore.
func newNode(governed bool, state []byte, out io.Writer, p *probe, capture bool) (*node, error) {
	cfg, gov, err := engineConfig(governed)
	if err != nil {
		return nil, err
	}
	att := attach(&cfg, gov, p, capture)
	eng, err := ipd.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	att.registerMetrics(eng.Telemetry())
	fm := ipd.NewFlowMetrics(eng.Telemetry())
	n := &node{eng: eng, att: att, out: out, p: p}
	n.newReader = func(r io.Reader) *ipd.TraceReader {
		tr := ipd.NewTraceReader(r)
		tr.SetMetrics(fm)
		return tr
	}
	if state != nil {
		t0 := p.start()
		if err := eng.UnmarshalState(state); err != nil {
			return nil, fmt.Errorf("restore checkpoint: %w", err)
		}
		p.lap(lDecode, t0, spanCtx{})
	}
	return n, nil
}

// emit writes one Appendix-B output bin.
func (n *node) emit(at time.Time, sc spanCtx) error {
	t0 := n.p.start()
	err := ipd.WriteOutputSnapshot(n.out, at, n.eng.Mapped(), nil)
	n.p.lap(lSnapshot, t0, sc)
	return err
}

// handle is cmd/ipd's per-record step; sc is the chain its calls are
// traced in.
func (n *node) handle(rec ipd.Record, sc spanCtx) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.att.sc = sc
	if n.nextBin.IsZero() {
		n.nextBin = rec.Ts.Truncate(binLen).Add(binLen)
	}
	if rec.Ts.After(n.nextBin.Add(maxJump)) {
		return fmt.Errorf("record timestamp %v jumps more than %v past the current bin %v", rec.Ts, maxJump, n.nextBin)
	}
	p := n.p
	for !rec.Ts.Before(n.nextBin) {
		t0 := p.start()
		n.eng.AdvanceTo(n.nextBin)
		p.lap(lAdvance, t0, sc)
		if err := n.emit(n.nextBin, sc); err != nil {
			return err
		}
		n.nextBin = n.nextBin.Add(binLen)
	}
	t0 := p.start()
	n.att.health.ObserveRecord(rec.In.Router)
	t1 := p.lap(lHealth, t0, sc)
	n.att.wl.ObserveRecord(rec)
	t2 := p.lap(lWorkload, t1, sc)
	if p == nil {
		n.eng.Feed(rec)
		return nil
	}
	c0 := n.eng.Cycles()
	n.eng.Feed(rec)
	if n.eng.Cycles() != c0 {
		p.lap(lFeedCycle, t2, sc)
	} else {
		p.lap(lObserve, t2, sc)
	}
	return nil
}

// finish is the end-of-input step: a forced cycle and the last bin.
func (n *node) finish() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.att.sc = spanCtx{}
	n.eng.ForceCycle()
	return n.emit(n.eng.Now(), spanCtx{})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
