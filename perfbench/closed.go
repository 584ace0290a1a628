package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"ipd"
)

// closedInput is the prepared input of a closed-loop workload.
type closedInput struct {
	warm   []byte // checkpoint after the untimed warm-up
	trace  []byte // the window as an in-memory binary trace
	n      int    // records in the window
	digest string
}

// prepareClosed generates the warm-up and window of steady (or scan-flood,
// when governed), warms a node on the first part and encodes the second.
func prepareClosed(seed int64, governed bool) (*closedInput, error) {
	w, err := newWorld(seed)
	if err != nil {
		return nil, err
	}
	flows, warmLen, winLen := steadyFlows, steadyWarm, steadyWindow
	if governed {
		flows, warmLen, winLen = floodLegit, floodWarm, floodWindow
	}
	start := w.scen.Start
	split := start.Add(warmLen)
	end := split.Add(winLen)

	warmNode, err := newNode(governed, nil, io.Discard, nil, false)
	if err != nil {
		return nil, err
	}
	dig := newDigester()
	tr := newEncodeTrace()
	pr := newProps(split)
	in := &closedInput{}
	var ferr error
	err = w.stream(start, end, flows, governed, split, func(rec ipd.Record) {
		if ferr != nil {
			return
		}
		if ferr = dig.add(rec); ferr != nil {
			return
		}
		if rec.Ts.Before(split) {
			ferr = warmNode.handle(rec, spanCtx{})
			return
		}
		pr.add(rec)
		ferr = tr.add(rec)
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	in.warm = warmNode.eng.MarshalState()
	in.n = tr.n
	if in.trace, err = tr.bytes(); err != nil {
		return nil, err
	}
	if in.digest, err = dig.sum(); err != nil {
		return nil, err
	}
	fmt.Printf("# input prepared after %.1fs, digest %s; warm-up %v to %d ranges; window %v: %s\n",
		since(runStart), in.digest, warmLen, warmNode.eng.RangeCount(), winLen, pr)
	return in, nil
}

// closedPass is one pass's node and measurements.
type closedPass struct {
	pass
	node   *node
	digest string
	counts engineCounts
	ipMax  int // gate passes: the most per-IP state after any record
}

// runClosedPass builds a node from the warm checkpoint and replays the
// window through the cmd/ipd loop on this goroutine, timing every call
// that crossed a T boundary.
func runClosedPass(in *closedInput, governed bool, p *probe, tracer *ipd.Tracer, gate bool) (*closedPass, error) {
	base := liveHeap()
	t0 := time.Now()
	n, err := newNode(governed, in.warm, io.Discard, p, gate)
	if err != nil {
		return nil, err
	}
	cp := &closedPass{node: n}
	cp.setup = time.Since(t0)
	if tracer != nil {
		n.eng.SetTracer(tracer)
	}
	before := snapshotCounts(n.eng)
	c0 := n.eng.Cycles()

	// The loop owns its thread, so that thread CPU time is the loop's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m := startMeter()
	ingest0 := threadCPU()
	tr := n.newReader(bytes.NewReader(in.trace))
	var minute time.Time
	for i := 0; ; i++ {
		var sc spanCtx // the record's chain: sampled records and cycles get a span
		if i%spanSampleN == 0 {
			sc = p.open(true)
		}
		tRead := p.start()
		rec, err := tr.Read()
		if err == io.EOF {
			p.close(sc, "record", tRead, time.Now(), 0, uint64(i))
			break
		}
		if err != nil {
			return nil, err
		}
		tCall := p.lap(lRead, tRead, sc)
		// Only a record in a new minute can cross a T boundary; time those.
		crossing := !rec.Ts.Truncate(cycleT).Equal(minute)
		var cpuCall time.Duration
		if crossing {
			minute = rec.Ts.Truncate(cycleT)
			if sc.parent == 0 {
				sc = p.open(false) // a span for the cycle, not per-record ones
			}
			tCall = time.Now()
			cpuCall = threadCPU()
		}
		if err := n.handle(rec, sc); err != nil {
			return nil, err
		}
		if crossing || p != nil {
			tEnd := time.Now()
			name := "record"
			if crossing && n.eng.Cycles() != c0 {
				c0 = n.eng.Cycles()
				cp.cycleMS = append(cp.cycleMS, ms(tEnd.Sub(tCall)))
				cp.cyclePU = append(cp.cyclePU, ms(threadCPU()-cpuCall))
				name = "cycle"
			}
			if p != nil {
				p.tally(lRecord, tEnd.Sub(tCall), 1)
				p.close(sc, name, tRead, tEnd, 0, uint64(i))
			}
		}
		if gate && governed {
			cp.ipMax = max(cp.ipMax, n.eng.IPStateCount())
		}
	}
	tFin, cpuFin := time.Now(), threadCPU()
	if err := n.finish(); err != nil {
		return nil, err
	}
	end, cpuEnd := time.Now(), threadCPU()
	cp.cycleMS = append(cp.cycleMS, ms(end.Sub(tFin)))
	cp.cyclePU = append(cp.cyclePU, ms(cpuEnd-cpuFin))
	cp.ingest = cpuEnd - ingest0
	m.stop(&cp.pass, end)
	cp.offered = in.n
	cp.counts = snapshotCounts(n.eng).since(before, n.att)
	cp.records = int(cp.counts.records)
	cp.heapMB = heapDelta(base, liveHeap())
	cp.digest = partitionDigest(n.eng.Snapshot())
	return cp, nil
}

// closedPasses runs the timed passes. With digest empty, the first pass
// also captures the journal and runs every gate, outside its window, and
// sets the digest every later pass must reproduce.
func closedPasses(rc runConfig, in *closedInput, governed bool, p *probe, tracer *ipd.Tracer, digest *string) (passes, []engineCounts, []float64, error) {
	var counts []engineCounts
	ps, setups, err := runPasses(rc.seconds, func(n int) (*pass, error) {
		gate := *digest == ""
		cp, err := runClosedPass(in, governed, p, tracer, gate)
		if err != nil {
			return nil, err
		}
		if gate {
			if err := check(checkClosed(in, governed, cp)); err != nil {
				return nil, err
			}
			*digest = cp.digest
			fmt.Printf("# partition digest %s (%d ranges, %d cycles in the window)\n",
				cp.digest, cp.node.eng.RangeCount(), cp.counts.cycles.n)
		} else if cp.digest != *digest {
			check(gateErr("pass %d ended in partition %s, the first pass in %s", n, cp.digest, *digest))
		}
		cp.node = nil
		counts = append(counts, cp.counts)
		return &cp.pass, nil
	}, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := newNode(governed, in.warm, io.Discard, nil, false)
		return time.Since(t0), err
	})
	return ps, counts, setups, err
}

// checkClosed runs the gates on a pass that captured its journal.
func checkClosed(in *closedInput, governed bool, cp *closedPass) error {
	if err := checkEngine(cp.node.eng, governed, in.warm, cp.node.att.events); err != nil {
		return err
	}
	if governed && max(cp.ipMax, cp.counts.cycles.ipPeak) > floodIPStates {
		return gateErr("per-IP state reached %d, over the %d cap", max(cp.ipMax, cp.counts.cycles.ipPeak), floodIPStates)
	}
	if cp.records != in.n {
		return gateErr("engine counted %d of %d records", cp.records, in.n)
	}
	fmt.Printf("# gates passed after %.1fs\n", since(runStart))
	return nil
}

// runClosed drives steady (governed=false) or scan-flood (governed=true).
func runClosed(rc runConfig, governed bool) (*report, error) {
	in, err := prepareClosed(rc.seed, governed)
	if err != nil {
		return nil, err
	}
	var digest string
	untraced, _, setups, err := closedPasses(rc, in, governed, nil, nil, &digest)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.attempted, rep.failed = untraced.failures()
	if rep.e2e, err = untraced.endToEnd(setups); err != nil {
		return nil, err
	}
	if !rc.trace {
		return rep, nil
	}
	p := newProbe()
	tracer, es := newEngineTracer()
	traced, counts, _, err := closedPasses(rc, in, governed, p, tracer, &digest)
	if err != nil {
		return nil, err
	}
	rep.layers = layerDefaults()
	traced.processLayers(rep.layers)
	engineLayers(rep.layers, counts, p, es)
	rep.layers["flow.read_ns"] = p.mean(lRead)
	rep.layers["core.observe_ns"] = p.mean(lObserve)
	rep.layers["trace.overhead_frac"] = traced.median((*pass).cpuPerRecord)/untraced.median((*pass).cpuPerRecord) - 1
	return rep, finishTrace(rc, p, tracer)
}
