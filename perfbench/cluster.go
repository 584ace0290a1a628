package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ipd"
)

// clusterRate is the open-loop offered load in records per second.
const clusterRate = 100000

// Cluster transport settings: the binaries' defaults, except the spool.
// Durable acks advance only at a checkpoint, every ckptN cycles, so an edge
// holds at least ten minutes of its share unacked, more while the core lags
// the open-loop offer (up to 147k records measured): 1<<18 holds that
// without shedding, where the -spool-cap default 1<<16 would shed.
const (
	clusterSpool = 1 << 18
	edgeA        = "edge-a"
	edgeB        = "edge-b"
)

// clusterInput is the cluster workload's input.
type clusterInput struct {
	warm   []byte       // checkpoint after the untimed warm-up
	recs   []ipd.Record // the window, in offer order
	edge   []uint8      // 0 = edge-a, 1 = edge-b, by the router's PoP
	merged []int32      // the core's expected apply order, as indices into recs
	digest string
}

func prepareCluster(seed int64) (*clusterInput, error) {
	w, err := newWorld(seed)
	if err != nil {
		return nil, err
	}
	start := w.scen.Start
	split := start.Add(steadyWarm)
	end := split.Add(clusterWindow)
	warmNode, err := newNode(false, nil, io.Discard, nil, false)
	if err != nil {
		return nil, err
	}
	in := &clusterInput{}
	dig := newDigester()
	pr := newProps(split)
	var ferr error
	err = w.stream(start, end, steadyFlows, false, time.Time{}, func(rec ipd.Record) {
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
		r, ok := w.scen.Topo.Router(rec.In.Router)
		if !ok {
			ferr = fmt.Errorf("record from unknown router %d", rec.In.Router)
			return
		}
		pr.add(rec)
		in.recs = append(in.recs, rec)
		in.edge = append(in.edge, uint8(r.PoP%2))
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	in.warm = warmNode.eng.MarshalState()
	if in.digest, err = dig.sum(); err != nil {
		return nil, err
	}
	in.merged = mergeOrder(in.recs, in.edge)
	fmt.Printf("# input prepared after %.1fs, digest %s; two edges at %d records/s over loopback TCP; window %v: %s\n",
		since(runStart), in.digest, clusterRate, clusterWindow, pr)
	return in, nil
}

// mergeOrder is the order the core's deterministic merge applies the two
// edges' streams in: by each edge's running-max timestamp at the record,
// then edge id, then the edge's own offset.
func mergeOrder(recs []ipd.Record, edge []uint8) []int32 {
	keys := make([]time.Time, len(recs))
	var runMax [2]time.Time
	for i, rec := range recs {
		e := edge[i]
		if rec.Ts.After(runMax[e]) {
			runMax[e] = rec.Ts
		}
		keys[i] = runMax[e]
	}
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if !keys[i].Equal(keys[j]) {
			return keys[i].Before(keys[j])
		}
		return edge[i] < edge[j]
	})
	return order
}

// clusterPass is one pass's measurements.
type clusterPass struct {
	pass
	counts    engineCounts
	core      *node // kept for the gate pass's checks
	sends     [2]ipd.DeltaSenderStats
	batches   uint64
	ckptBytes int
	spoolMax  int
	fsType    string
}

// runClusterPass restores the core from a cluster checkpoint, connects two
// edges, offers the window on the schedule and waits until the core has
// applied every record. With setupOnly it returns once the edges are
// connected, for a set-up sample.
func runClusterPass(rc runConfig, in *clusterInput, pass int, p *probe, tracer *ipd.Tracer, gate, setupOnly bool) (cp *clusterPass, err error) {
	dir := filepath.Join(rc.outDir, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), pass))
	defer os.RemoveAll(dir)
	// The warm state is on disk as a previous core run would have left it.
	if err := writeWarmCheckpoint(dir, in.warm); err != nil {
		return nil, err
	}
	base := liveHeap()
	t0 := time.Now()
	core, err := newNode(false, nil, io.Discard, p, gate)
	if err != nil {
		return nil, err
	}
	mgr, err := ipd.NewCheckpointManager(ipd.CheckpointOptions{Dir: dir, Registry: core.eng.Telemetry()})
	if err != nil {
		return nil, err
	}
	td := p.start()
	restored, err := restoreCluster(core.eng, mgr)
	if err != nil {
		return nil, err
	}
	p.lap(lDecode, td, spanCtx{})
	cp = &clusterPass{core: core, fsType: fsType(dir)}
	sch := schedule{rate: clusterRate}
	var (
		applied  int
		lastCkpt = core.eng.Cycles()
		c0       = core.eng.Cycles()
		minute   time.Time
		applyErr onceErr
		recv     *ipd.DeltaReceiver
		batches  []appliedBatch
	)
	// saveCluster writes a cluster checkpoint; its span hangs under the
	// batch chain that ran it.
	saveCluster := func(app map[string]uint64, batch spanCtx) error {
		ck := p.open(false)
		t0 := p.start()
		core.mu.Lock()
		data := core.eng.MarshalState()
		seq := core.eng.Seq()
		core.mu.Unlock()
		env, err := ipd.EncodeClusterCheckpoint(data, app)
		if err != nil {
			return err
		}
		t := p.lap(lEncode, t0, ck)
		cp.ckptBytes = len(env)
		err = mgr.Save(seq, env)
		p.close(ck, "checkpoint", t0, p.lap(lSave, t, ck), batch.parent, seq)
		return err
	}
	// apply is the cmd/ipd -listen-delta core loop, with the merged order
	// checked record by record and each record's ship latency taken.
	apply := func(recs []ipd.Record, app map[string]uint64) error {
		// Own the thread for the call, so that thread CPU time is the core's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		batch := p.open(false)
		tApply := time.Now()
		first := applied
		for _, rec := range recs {
			j := in.merged[applied]
			if want := in.recs[j]; rec.Ts != want.Ts || rec.Src != want.Src || rec.In != want.In {
				return gateErr("core applied %v from %v at position %d, the merged stream has %v from %v", rec.Src, rec.Ts, applied, want.Src, want.Ts)
			}
			crossing := !rec.Ts.Truncate(cycleT).Equal(minute)
			// A sampled record, or one that may run a cycle, gets a chain of
			// its own under the batch (a cycle keeps spans only for its rare
			// calls); the others' rare calls hang under the batch itself.
			sampled := applied%spanSampleN == 0
			sc, own := spanCtx{parent: batch.parent}, sampled || crossing
			if own {
				sc = p.open(sampled)
			}
			applied++
			var tc time.Time
			var cpu time.Duration
			if crossing {
				minute = rec.Ts.Truncate(cycleT)
				tc, cpu = time.Now(), threadCPU()
			}
			tRec := p.start()
			if err := core.handle(rec, sc); err != nil {
				return err
			}
			name := "record"
			if crossing && core.eng.Cycles() != c0 {
				c0 = core.eng.Cycles()
				cp.cycleMS = append(cp.cycleMS, ms(time.Since(tc)))
				cp.cyclePU = append(cp.cyclePU, ms(threadCPU()-cpu))
				name = "cycle"
			}
			if p != nil {
				tEnd := time.Now()
				p.tally(lRecord, tEnd.Sub(tRec), 1)
				if own {
					p.close(sc, name, tRec, tEnd, batch.parent, uint64(j))
				}
			}
		}
		if cycles := core.eng.Cycles(); cycles-lastCkpt >= ckptN {
			lastCkpt = cycles
			if err := saveCluster(app, batch); err != nil {
				return err
			}
			recv.MarkDurable(app)
		}
		done := time.Now()
		batches = append(batches, appliedBatch{first, applied, done})
		cp.ingest += threadCPU() - cpu0
		if p != nil {
			p.tally(lApply, done.Sub(tApply), 1)
			p.close(batch, "apply", tApply, done, 0, uint64(first))
		}
		return nil
	}
	recv, err = ipd.NewDeltaReceiver(ipd.DeltaReceiverConfig{
		Edges:       []string{edgeA, edgeB},
		DurableAcks: true,
		Apply: func(recs []ipd.Record, app map[string]uint64) error {
			err := apply(recs, app)
			applyErr.set(err)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	recv.SetApplied(restored)
	recv.RegisterMetrics(core.eng.Telemetry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- recv.Serve(ln) }()
	defer func() {
		_ = recv.Close()
		if serr := <-serveErr; serr != nil && err == nil && !errors.Is(serr, net.ErrClosed) {
			err = serr
		}
	}()
	var senders [2]*ipd.DeltaSender
	for e, id := range []string{edgeA, edgeB} {
		s, err := ipd.NewDeltaSender(ipd.DeltaSenderConfig{Target: ln.Addr().String(), EdgeID: id, SpoolCap: clusterSpool, Seed: uint64(e + 1)})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		senders[e] = s
	}
	for recv.Stats().Sessions < 2 {
		if time.Since(t0) > 10*time.Second {
			return nil, errors.New("edges did not connect within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cp.setup = time.Since(t0)
	if setupOnly {
		return cp, nil
	}
	if tracer != nil {
		core.eng.SetTracer(tracer)
	}
	before := snapshotCounts(core.eng)

	m := startMeter()
	sch.start = time.Now()
	for i := 0; i < len(in.recs); {
		if d := time.Until(sch.due(i)); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		cp.lateMS = append(cp.lateMS, ms(sch.lateness(i, now)))
		for ; i < len(in.recs) && !sch.due(i).After(now); i++ {
			t := p.start()
			senders[in.edge[i]].Offer(in.recs[i])
			if p != nil {
				p.book(lShip, t, time.Now(), spanCtx{sampled: i%spanSampleN == 0}, uint64(i))
			}
		}
		if p != nil {
			cp.spoolMax = max(cp.spoolMax, senders[0].Stats().SpoolDepth, senders[1].Stats().SpoolDepth)
		}
	}
	for _, s := range senders {
		s.CloseInput()
	}
	select {
	case <-recv.Done():
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("core applied %d of %d records in time: %v", applied, len(in.recs), applyErr.get())
	}
	end := time.Now()
	m.stop(&cp.pass, end)

	if err := applyErr.get(); err != nil {
		return nil, err
	}
	// The cmd/ipd core's shutdown: final checkpoint, acks, drained edges.
	if err := saveCluster(recv.Applied(), spanCtx{}); err != nil {
		return nil, err
	}
	recv.MarkDurable(recv.Applied())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range senders {
		if err := s.Drain(ctx); err != nil {
			return nil, err
		}
	}
	if err := core.finish(); err != nil {
		return nil, err
	}
	cp.shipMS = make([]float64, 0, len(in.recs))
	for _, b := range batches {
		for _, j := range in.merged[b.from:b.to] {
			cp.shipMS = append(cp.shipMS, ms(sch.latency(int(j), b.done)))
		}
	}
	cp.offered = len(in.recs)
	cp.counts = snapshotCounts(core.eng).since(before, core.att)
	cp.records = int(cp.counts.records)
	rs := recv.Stats()
	cp.batches = rs.Batches
	for e, s := range senders {
		cp.sends[e] = s.Stats()
		if cp.sends[e].Shed > 0 {
			return nil, fmt.Errorf("%s shed %d records", cp.sends[e].EdgeID, cp.sends[e].Shed)
		}
	}
	for _, es := range rs.Edges {
		if es.Gaps > 0 {
			check(gateErr("core booked %d gaps from %s", es.Gaps, es.EdgeID))
		}
	}
	cp.heapMB = heapDelta(base, liveHeap())
	return cp, nil
}

// appliedBatch is one Apply call: merged positions [from, to) were applied
// by done.
type appliedBatch struct {
	from, to int
	done     time.Time
}

// writeWarmCheckpoint leaves the warm state in dir as a cluster checkpoint
// with no edge offsets applied yet.
func writeWarmCheckpoint(dir string, warm []byte) error {
	mgr, err := ipd.NewCheckpointManager(ipd.CheckpointOptions{Dir: dir})
	if err != nil {
		return err
	}
	env, err := ipd.EncodeClusterCheckpoint(warm, map[string]uint64{})
	if err != nil {
		return err
	}
	return mgr.Save(0, env)
}

// restoreCluster is cmd/ipd's core-mode restore: the newest valid cluster
// checkpoint into eng, returning the per-edge offsets to resume after.
func restoreCluster(eng *ipd.Engine, mgr *ipd.CheckpointManager) (map[string]uint64, error) {
	var applied map[string]uint64
	_, err := mgr.Load(func(data []byte) error {
		state, app, err := ipd.DecodeClusterCheckpoint(data)
		if err != nil {
			return err
		}
		if err := eng.UnmarshalState(state); err != nil {
			return err
		}
		applied = app
		return nil
	})
	return applied, err
}

// fsType names the filesystem holding dir, for the record of where the
// checkpoints were written.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// checkCluster requires the core to be byte-identical to one engine fed the
// merged stream through the same loop, plus the shared gates.
func checkCluster(in *clusterInput, core *node) error {
	ref, err := newNode(false, in.warm, io.Discard, nil, false)
	if err != nil {
		return err
	}
	for _, j := range in.merged {
		if err := ref.handle(in.recs[j], spanCtx{}); err != nil {
			return err
		}
	}
	if err := ref.finish(); err != nil {
		return err
	}
	if !bytes.Equal(ref.eng.MarshalState(), core.eng.MarshalState()) {
		return gateErr("cluster core state differs from one engine fed the merged stream")
	}
	return checkEngine(core.eng, false, in.warm, core.att.events)
}

// runCluster drives the cluster workload.
func runCluster(rc runConfig) (*report, error) {
	in, err := prepareCluster(rc.seed)
	if err != nil {
		return nil, err
	}
	// The first timed pass also captures the journal and runs every gate,
	// outside its window; later passes must reproduce its partition.
	var digest string
	run := func(p *probe, tracer *ipd.Tracer) (passes, []*clusterPass, []float64, error) {
		var cps []*clusterPass
		ps, setups, err := runPasses(rc.seconds, func(n int) (*pass, error) {
			gate := digest == ""
			cp, err := runClusterPass(rc, in, n, p, tracer, gate, false)
			if err != nil {
				return nil, err
			}
			d := partitionDigest(cp.core.eng.Snapshot())
			if gate {
				err := checkCluster(in, cp.core)
				if err == nil {
					fmt.Printf("# gates passed after %.1fs\n", since(runStart))
				} else if err = check(err); err != nil {
					return nil, err
				}
				digest = d
				fmt.Printf("# partition digest %s; checkpoints on %s\n", digest, cp.fsType)
			} else if d != digest {
				check(gateErr("pass %d ended in partition %s, the first pass in %s", n, d, digest))
			}
			cp.core = nil
			cps = append(cps, cp)
			return &cp.pass, nil
		}, func() (time.Duration, error) {
			cp, err := runClusterPass(rc, in, 0, nil, nil, false, true)
			if err != nil {
				return 0, err
			}
			return cp.setup, nil
		})
		return ps, cps, setups, err
	}
	untraced, _, setups, err := run(nil, nil)
	if err != nil {
		return nil, err
	}
	untraced.latencies("ship", func(p *pass) []float64 { return p.shipMS })
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
	traced, cps, _, err := run(p, tracer)
	if err != nil {
		return nil, err
	}
	m := layerDefaults()
	rep.layers = m
	traced.processLayers(m)
	counts := make([]engineCounts, len(cps))
	n := float64(len(cps))
	var applied, batches uint64
	for i, cp := range cps {
		counts[i] = cp.counts
		applied += uint64(cp.records)
		batches += cp.batches
		m["persist.checkpoint_bytes"] = max(m["persist.checkpoint_bytes"], float64(cp.ckptBytes))
		m["delta.spool_depth_max"] = max(m["delta.spool_depth_max"], float64(cp.spoolMax))
		for _, s := range cp.sends {
			m["delta.shed"] += float64(s.Shed) / n
			m["delta.retransmitted"] += float64(s.Retransmitted) / n
		}
	}
	engineLayers(m, counts, p, es)
	m["core.observe_ns"] = p.mean(lObserve)
	m["persist.encode_ms"] = p.mean(lEncode) / 1e6
	m["persist.save_ms"] = p.mean(lSave) / 1e6
	m["delta.apply_ms"] = p.mean(lApply) / 1e6
	m["delta.records_per_batch"] = float64(applied) / float64(max(batches, 1))
	m["delta.ship_ms_p50"], m["delta.ship_ms_p99"] = traced.latencies("traced ship", func(p *pass) []float64 { return p.shipMS })
	m["trace.overhead_frac"] = traced.median((*pass).cpuPerRecord)/untraced.median((*pass).cpuPerRecord) - 1
	return rep, finishTrace(rc, p, tracer)
}
