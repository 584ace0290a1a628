package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ipd"
)

// engineCounts are an engine's work counters over one pass: counts that
// noise cannot move, next to the timings.
type engineCounts struct {
	records, splits, joins, events uint64
	skipped                        uint64
	sketchObserves, degrades       uint64
	hydrates, govTransitions       uint64
	cycles                         cycleStats
}

// snapshotCounts reads the engine's cumulative counters.
func snapshotCounts(eng *ipd.Engine) engineCounts {
	return countsOf(eng.Stats(), eng.Seq(), eng.Telemetry(), eng.SketchStatus(), eng.Config().Governor)
}

// serverCounts reads the counters of a server's engine.
func serverCounts(srv *ipd.Server) engineCounts {
	st, _ := srv.Stats()
	return countsOf(st, srv.Seq(), srv.Telemetry(), srv.SketchStatus(), nil)
}

func countsOf(st ipd.Stats, seq uint64, reg *ipd.TelemetryRegistry, sk ipd.SketchStatus, gov *ipd.Governor) engineCounts {
	c := engineCounts{
		records:        st.Records,
		splits:         st.Splits,
		joins:          st.Joins,
		events:         seq,
		skipped:        reg.Counter("ipd_ip_states_skipped_total", "").Value(),
		sketchObserves: sk.Observes,
		degrades:       sk.Degrades,
		hydrates:       sk.Hydrates,
	}
	if gov != nil {
		c.govTransitions = gov.Snapshot().Transitions
	}
	return c
}

// since returns the counters accumulated after before, with the pass's
// end-of-cycle samples.
func (c engineCounts) since(before engineCounts, att *attachments) engineCounts {
	return engineCounts{
		records:        c.records - before.records,
		splits:         c.splits - before.splits,
		joins:          c.joins - before.joins,
		events:         c.events - before.events,
		skipped:        c.skipped - before.skipped,
		sketchObserves: c.sketchObserves - before.sketchObserves,
		degrades:       c.degrades - before.degrades,
		hydrates:       c.hydrates - before.hydrates,
		govTransitions: c.govTransitions - before.govTransitions,
		cycles:         att.cycles,
	}
}

// engineLayers fills the per-layer metrics of the engine, its attachments
// and checkpoint restore: counts as per-pass means, times from the probe
// and the engine tracer.
func engineLayers(m map[string]float64, counts []engineCounts, p *probe, es *engineSpans) {
	n := float64(max(len(counts), 1))
	var cyc cycleStats
	for _, c := range counts {
		m["core.splits"] += float64(c.splits) / n
		m["core.joins"] += float64(c.joins) / n
		m["core.events"] += float64(c.events) / n
		m["core.ip_states_skipped"] += float64(c.skipped) / n
		m["sketch.observes"] += float64(c.sketchObserves) / n
		m["sketch.degrades"] += float64(c.degrades) / n
		m["sketch.hydrates"] += float64(c.hydrates) / n
		m["governor.transitions"] += float64(c.govTransitions) / n
		m["governor.degraded_cycles"] += float64(c.cycles.degradedCycles) / n
		cyc.n += c.cycles.n
		cyc.ranges += c.cycles.ranges
		cyc.trieNodes += c.cycles.trieNodes
		cyc.ipState += c.cycles.ipState
		cyc.ipPeak = max(cyc.ipPeak, c.cycles.ipPeak)
		cyc.sketchedPeak = max(cyc.sketchedPeak, c.cycles.sketchedPeak)
	}
	if cyc.n > 0 {
		m["core.ranges_mean"] = cyc.ranges / float64(cyc.n)
		m["core.trie_nodes_mean"] = cyc.trieNodes / float64(cyc.n)
		m["core.ip_states_mean"] = cyc.ipState / float64(cyc.n)
	}
	m["core.ip_states_peak"] = float64(cyc.ipPeak)
	m["sketch.ranges_peak"] = float64(cyc.sketchedPeak)
	for _, phase := range []string{"snapshot", "decay", "classify", "split", "join", "drop", "govern"} {
		m["core.cycle."+phase+"_ms"] = es.perCycle(phase)
	}
	m["journal.record_ns"] = p.mean(lJournal)
	m["timeline.on_cycle_us"] = p.mean(lTimelineCycle) / 1e3
	m["timeline.observe_event_ns"] = p.mean(lTimelineEvent)
	m["exphealth.observe_ns"] = p.mean(lHealth)
	m["workload.observe_ns"] = p.mean(lWorkload)
	m["export.snapshot_ms"] = p.mean(lSnapshot) / 1e6
	m["persist.decode_ms"] = p.mean(lDecode) / 1e6
}

// finishTrace prints the traced run's layer table and writes both Chrome
// traces: the harness's spans and the engine tracer's.
func finishTrace(rc runConfig, p *probe, tracer *ipd.Tracer) error {
	p.report(os.Stdout)
	base := filepath.Join(rc.outDir, fmt.Sprintf("trace-%s-seed%d", rc.workload, rc.seed))
	if err := p.writeChrome(base + "-harness.json"); err != nil {
		return err
	}
	if err := writeEngineTrace(base+"-engine.json", tracer); err != nil {
		return err
	}
	fmt.Printf("# wrote Chrome traces %s-harness.json and %s-engine.json\n", base, base)
	return nil
}
