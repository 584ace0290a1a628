package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ipd"
	"ipd/internal/netflow"
)

// collectorRate is the open-loop offered load in records per second.
const collectorRate = 80000

// collectorRouter is the router id the collector registers the generator's
// address under. A v5 datagram carries no router; the collector derives it
// from the exporter address, and the generator has one socket — so the
// stream's (router, interface) ingress is folded into the interface field,
// router<<8 | interface, keeping one ingress per original ingress.
const collectorRouter = 1

// v5Stream is the collector workload's input: the steady scenario at
// collectorFlows without its IPv6 records, packed 30 records per NetFlow v5
// datagram, each record stamped with its datagram's export time as the
// collector will see it.
type v5Stream struct {
	warm      []byte   // checkpoint after the untimed warm-up
	datagrams [][]byte // the window, encoded
	records   int
	binAt     []time.Duration // schedule offsets at which the window crosses a 5-minute bin
	addrs     []netip.Addr
	digest    string
	props     *props
}

// buildV5Stream generates the collector input; warm is false in the
// generator process, which needs only the datagrams.
func buildV5Stream(seed int64, warm bool) (*v5Stream, error) {
	w, err := newWorld(seed)
	if err != nil {
		return nil, err
	}
	start := w.scen.Start
	split := start.Add(steadyWarm)
	end := split.Add(collectorWindow)
	var warmNode *node
	if warm {
		if warmNode, err = newNode(false, nil, io.Discard, nil, false); err != nil {
			return nil, err
		}
	}
	s := &v5Stream{props: newProps(split)}
	dig := newDigester()
	var pending []netflow.Record
	var pendingHeader netflow.Header
	var seq uint32
	inWindow := false
	var nextBin time.Time
	var ferr error
	// flush packs the pending records into one datagram and hands its
	// records, as the collector will decode them, to the warm-up or the
	// window.
	flush := func() {
		if len(pending) == 0 || ferr != nil {
			return
		}
		d := netflow.Datagram{Header: pendingHeader, Records: pending}
		d.Header.FlowSequence = seq
		seq += uint32(len(pending))
		for _, r := range pending {
			rec := netflow.ToFlow(d.Header, r, collectorRouter)
			if !inWindow {
				if warmNode != nil {
					ferr = warmNode.handle(rec, spanCtx{})
				}
				continue
			}
			s.props.add(rec)
			if s.records%61 == 0 {
				s.addrs = append(s.addrs, rec.Src)
			}
			s.records++
			if ferr = dig.add(rec); ferr != nil {
				return
			}
		}
		if inWindow {
			if at := d.Header.ExportTime(); !at.Before(nextBin) {
				s.binAt = append(s.binAt, offsetOf(len(s.datagrams)))
				nextBin = at.Truncate(binLen).Add(binLen)
			}
			b, err := d.Encode()
			if err != nil {
				ferr = err
				return
			}
			s.datagrams = append(s.datagrams, b)
		}
		pending = pending[:0]
	}
	err = w.stream(start, end, collectorFlows, false, time.Time{}, func(rec ipd.Record) {
		if ferr != nil || !rec.Src.Is4() {
			return
		}
		if !inWindow && !rec.Ts.Before(split) {
			flush()
			inWindow = true
			nextBin = rec.Ts.Truncate(binLen).Add(binLen)
		}
		if rec.In.Router > 0xff || rec.In.Iface > 0xff {
			ferr = fmt.Errorf("ingress %v does not fold into a v5 interface index", rec.In)
			return
		}
		rec.In = ipd.Ingress{Router: collectorRouter, Iface: ipd.IfaceID(uint16(rec.In.Router)<<8 | uint16(rec.In.Iface))}
		r, err := netflow.FromFlow(rec)
		if err != nil {
			ferr = err
			return
		}
		if len(pending) == 0 {
			pendingHeader = netflow.Header{UnixSecs: uint32(rec.Ts.Unix()), UnixNsecs: uint32(rec.Ts.Nanosecond())}
		}
		pending = append(pending, r)
		if len(pending) == netflow.MaxRecords {
			flush()
		}
	})
	flush()
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	if warmNode != nil {
		s.warm = warmNode.eng.MarshalState()
	}
	if s.digest, err = dig.sum(); err != nil {
		return nil, err
	}
	return s, nil
}

// offsetOf is when datagram k is due, from the start of the send.
func offsetOf(k int) time.Duration {
	return time.Duration(float64(k*netflow.MaxRecords) / collectorRate * float64(time.Second))
}

// generatorMain is the separate load-generator process: it builds the same
// datagrams from the seed, reports "ready <digest>", then for each "send
// <addr>" line on stdin sends them on the fixed schedule from one goroutine
// over one socket and reports "done <datagrams> <lateness p99 ms>".
func generatorMain(args []string) error {
	fs := flag.NewFlagSet("generator", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := buildV5Stream(*seed, false)
	if err != nil {
		return err
	}
	fmt.Printf("ready %s\n", s.digest)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		cmd, addr, _ := strings.Cut(sc.Text(), " ")
		if cmd != "send" {
			return nil
		}
		late, err := sendSchedule(addr, s.datagrams)
		if err != nil {
			return err
		}
		fmt.Printf("done %d %g\n", len(s.datagrams), late)
	}
	return sc.Err()
}

// sendSchedule sends datagram k at offsetOf(k) after the start, late ones
// immediately, and returns the p99 lateness in ms.
func sendSchedule(addr string, datagrams [][]byte) (float64, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return 0, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	sch := schedule{start: time.Now(), rate: collectorRate / float64(netflow.MaxRecords)}
	late := make([]float64, 0, len(datagrams))
	for k, b := range datagrams {
		if d := time.Until(sch.due(k)); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(sch.lateness(k, time.Now())))
		if _, err := conn.Write(b); err != nil {
			return 0, err
		}
	}
	return quantile(late, 0.99), nil
}

// generator is the harness's handle on the generator process.
type generator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startGenerator starts the generator process; it builds its datagrams
// while the harness builds its own view of the stream, and says ready.
func startGenerator(seed int64) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "generator", "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &generator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

func (g *generator) line(want string) (string, error) {
	if !g.out.Scan() {
		if err := g.out.Err(); err != nil {
			return "", err
		}
		return "", errors.New("generator exited")
	}
	verb, rest, _ := strings.Cut(g.out.Text(), " ")
	if verb != want {
		return "", fmt.Errorf("generator said %q, want %s", g.out.Text(), want)
	}
	return rest, nil
}

// send runs one schedule against addr and returns the datagrams sent and
// the generator's p99 lateness.
func (g *generator) send(addr string) (int, float64, error) {
	if _, err := fmt.Fprintf(g.in, "send %s\n", addr); err != nil {
		return 0, 0, err
	}
	rest, err := g.line("done")
	if err != nil {
		return 0, 0, err
	}
	var n int
	var late float64
	if _, err := fmt.Sscanf(rest, "%d %g", &n, &late); err != nil {
		return 0, 0, err
	}
	return n, late, nil
}

// stop ends the generator and waits for it.
func (g *generator) stop() {
	g.in.Close()
	_ = g.cmd.Wait()
}

// collectorPass is one pass's measurements.
type collectorPass struct {
	pass
	counts     engineCounts
	datagrams  uint64
	received   uint64 // records the collector decoded
	shed       uint64
	stale      uint64
	future     uint64
	inactive   uint64
	lockWait   time.Duration
	lockAcq    uint64
	depthMax   int
	genLateP99 float64
	tracer     *ipd.Tracer // the binary's always-on tracer
	srv        *ipd.Server // kept for the gate pass's checks
	events     []ipd.Event // captured on the gate pass
}

// runCollectorPass builds the collector node as ipd-collector does,
// restores the warm checkpoint, has the generator send the window and
// drains the pipeline. With setupOnly it returns once the node is built,
// for a set-up sample.
func runCollectorPass(s *v5Stream, g *generator, p *probe, es *engineSpans, gate, setupOnly bool) (*collectorPass, error) {
	base := liveHeap()
	t0 := time.Now()
	cfg, _, err := engineConfig(false)
	if err != nil {
		return nil, err
	}
	att := attach(&cfg, nil, p, gate)
	srv, err := ipd.NewServer(cfg, ipd.DefaultStatTimeConfig())
	if err != nil {
		return nil, err
	}
	att.registerMetrics(srv.Telemetry())
	srv.SetWorkload(func(batch []ipd.Record) {
		t := p.start()
		att.wl.ObserveBatch(batch)
		if p != nil {
			// Per record, like the trace path's hook.
			p.tally(lWorkload, time.Since(t), int64(len(batch)))
		}
	})
	att.tl.SetContention(srv.LockContention)
	cp := &collectorPass{}
	// ipd-collector always runs its tracer and cycle watchdog; the cycle
	// spans are also where the stall of each stage-2 cycle is read, since
	// RunQueue runs the cycles out of the harness's reach.
	cp.tracer = ipd.NewTracer(ipd.TracerOptions{Capacity: 8192, SampleN: traceSample, Registry: srv.Telemetry()})
	srv.SetTracer(cp.tracer)
	wd, err := ipd.NewWatchdog(ipd.WatchdogConfig{Interval: cfg.T, Registry: srv.Telemetry()})
	if err != nil {
		return nil, err
	}
	cp.tracer.SetOnSpan(func(sp ipd.TraceSpan) {
		wd.ObserveSpan(sp)
		if sp.Phase.String() == "cycle" {
			cp.cycleMS = append(cp.cycleMS, ms(sp.Wall))
			cp.cyclePU = append(cp.cyclePU, ms(sp.CPU))
		}
		if es != nil {
			es.observe(sp)
		}
	})
	queue := ipd.NewIngestQueue(1 << 14)
	queue.RegisterMetrics(srv.Telemetry())
	td := p.start()
	if err := srv.RestoreCheckpoint(s.warm); err != nil {
		return nil, err
	}
	p.lap(lDecode, td, spanCtx{})
	// recvChain is the chain of the datagram the receive loop is handling;
	// only that goroutine reads or writes it.
	var recvChain spanCtx
	sink := queue.Offer
	if p != nil {
		sink = func(rec ipd.Record) {
			t := time.Now()
			queue.Offer(rec)
			p.lap(lOffer, t, recvChain)
		}
	}
	coll, err := netflow.NewCollector(sink)
	if err != nil {
		return nil, err
	}
	if p != nil {
		coll.SetHealth(timedHealth{att.health, p, &recvChain})
	} else {
		coll.SetHealth(att.health)
	}
	coll.RegisterExporter(netip.MustParseAddr("127.0.0.1"), collectorRouter)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		return nil, err
	}
	cp.setup = time.Since(t0)
	if setupOnly {
		return cp, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	var ingestCPU, recvCPU time.Duration // read after runErr and recvDone
	go func() {
		// The ingest goroutine owns its thread, so that the cycle spans'
		// thread CPU time is the cycle's, and the thread's is the loop's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c0 := threadCPU()
		err := srv.RunQueue(ctx, queue)
		ingestCPU = threadCPU() - c0
		runErr <- err
	}()
	before := serverCounts(srv)
	stBefore, _ := srv.Stats()

	// The receive loop is Collector.Serve's, with the datagram handler timed.
	recvDone := make(chan struct{})
	depthMax := 0
	go func() {
		defer close(recvDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c0 := threadCPU()
		buf := make([]byte, netflow.MaxDatagramLen)
		for i := uint64(0); ; i++ {
			n, remote, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				recvCPU = threadCPU() - c0
				return
			}
			if p == nil {
				coll.HandleDatagram(buf[:n], remote)
			} else {
				// 1 in spanSampleN records: their datagram's chain keeps spans.
				recvChain = spanCtx{}
				if i%(spanSampleN/netflow.MaxRecords) == 0 {
					recvChain = p.open(true)
				}
				t := time.Now()
				coll.HandleDatagram(buf[:n], remote)
				end := time.Now()
				p.tally(lDatagram, end.Sub(t), 1)
				p.close(recvChain, layerNames[lDatagram], t, end, 0, i)
			}
			depthMax = max(depthMax, queue.Len())
		}
	}()

	ql := startQueries(s.addrs, func(i int, a netip.Addr) {
		t := p.start()
		srv.Range(a)
		if p != nil {
			p.book(lRange, t, time.Now(), spanCtx{sampled: i%spanSampleN == 0}, uint64(i))
		}
	}, s.binAt, func() {
		t := p.start()
		srv.Mapped()
		p.lap(lMapped, t, spanCtx{})
	})
	m := startMeter()
	sent, late, err := g.send(conn.LocalAddr().String())
	if err != nil {
		return nil, err
	}
	cp.genLateP99 = late
	// Wait for the socket to drain: the decoded count reaches what was sent
	// or stops moving.
	st := coll.Stats()
	want := uint64(sent * netflow.MaxRecords)
	for last, idle := st.Records.Load(), 0; st.Records.Load() < want && idle < 20; {
		time.Sleep(5 * time.Millisecond)
		if cur := st.Records.Load(); cur == last {
			idle++
		} else {
			last, idle = cur, 0
		}
	}
	cancel() // RunQueue drains the queue, flushes the binner and runs a final cycle
	if err := <-runErr; err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	end := time.Now()
	m.stop(&cp.pass, end)
	ql.finish(&cp.pass)
	conn.Close()
	<-recvDone
	cp.ingest = ingestCPU + recvCPU

	cp.counts = serverCounts(srv).since(before, att)
	stAfter, bin := srv.Stats()
	cp.records = int(stAfter.Records - stBefore.Records)
	cp.offered = s.records
	cp.datagrams = st.Datagrams.Load()
	cp.received = st.Records.Load()
	cp.shed = queue.Shed()
	cp.stale, cp.future, cp.inactive = bin.DroppedStale, bin.DroppedFuture, bin.DroppedInactive
	cp.lockWait, cp.lockAcq = srv.LockContention()
	cp.depthMax = depthMax
	cp.heapMB = heapDelta(base, liveHeap())
	cp.events = att.events
	cp.srv = srv
	if got := uint64(cp.records) + cp.shed + cp.stale + cp.future + cp.inactive; got != cp.received {
		check(gateErr("collector accounting: %d records received, but engine %d + shed %d + stattime drops %d = %d",
			cp.received, cp.records, cp.shed, cp.stale+cp.future+cp.inactive, got))
	}
	return cp, nil
}

// checkServer runs the shared gates on the collector's server.
func checkServer(srv *ipd.Server, warm []byte, events []ipd.Event) error {
	final := srv.Snapshot()
	if err := checkPartition(final); err != nil {
		return err
	}
	data, _ := srv.EncodeCheckpoint()
	cfg, _, err := engineConfig(false)
	if err != nil {
		return err
	}
	fresh, err := ipd.NewServer(cfg, ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}
	if err := fresh.RestoreCheckpoint(data); err != nil {
		return gateErr("checkpoint does not restore: %v", err)
	}
	if again, _ := fresh.EncodeCheckpoint(); !bytes.Equal(again, data) {
		return gateErr("checkpoint round trip is not byte-identical")
	}
	return checkJournalTail(warm, false, events, final)
}

// runCollector drives the collector workload.
func runCollector(rc runConfig) (*report, error) {
	g, err := startGenerator(rc.seed)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	s, err := buildV5Stream(rc.seed, true)
	if err != nil {
		return nil, err
	}
	genDigest, err := g.line("ready")
	if err != nil {
		return nil, err
	}
	if genDigest != s.digest {
		return nil, gateErr("generator input digest %s differs from the harness's %s", genDigest, s.digest)
	}
	fmt.Printf("# input prepared after %.1fs, digest %s; %d datagrams at %d records/s over loopback UDP; window %v: %s\n",
		since(runStart), s.digest, len(s.datagrams), collectorRate, collectorWindow, s.props)

	// The first timed pass also captures the journal and runs every gate,
	// outside its window; every pass checks the record accounting.
	gated := false
	run := func(p *probe, es *engineSpans) (passes, []*collectorPass, []float64, error) {
		var cps []*collectorPass
		ps, setups, err := runPasses(rc.seconds, func(int) (*pass, error) {
			cp, err := runCollectorPass(s, g, p, es, !gated, false)
			if err != nil {
				return nil, err
			}
			if !gated {
				err := checkServer(cp.srv, s.warm, cp.events)
				if err == nil {
					fmt.Printf("# gates passed after %.1fs\n", since(runStart))
				} else if err = check(err); err != nil {
					return nil, err
				}
				fmt.Printf("# partition digest %s; accounting: %d received = %d engine + %d shed + %d stattime drops\n",
					partitionDigest(cp.srv.Snapshot()), cp.received, cp.records, cp.shed, cp.stale+cp.future+cp.inactive)
				gated = true
			}
			cp.srv, cp.events = nil, nil
			cp.note = fmt.Sprintf(", %d shed, %d lost in UDP, queue depth max %d", cp.shed, cp.offered-int(cp.received), cp.depthMax)
			cps = append(cps, cp)
			return &cp.pass, nil
		}, func() (time.Duration, error) {
			cp, err := runCollectorPass(s, g, nil, nil, false, true)
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
	untraced.latencies("query", func(p *pass) []float64 { return p.queryMS })
	rep := &report{}
	rep.attempted, rep.failed = untraced.failures()
	if rep.e2e, err = untraced.endToEnd(setups); err != nil {
		return nil, err
	}
	if !rc.trace {
		return rep, nil
	}
	p := newProbe()
	es := newEngineSpans()
	traced, cps, _, err := run(p, es)
	if err != nil {
		return nil, err
	}
	m := layerDefaults()
	rep.layers = m
	traced.processLayers(m)
	counts := make([]engineCounts, len(cps))
	n := float64(len(cps))
	for i, cp := range cps {
		counts[i] = cp.counts
		m["netflow.datagrams"] += float64(cp.datagrams) / n
		m["udp.dropped"] += float64(cp.offered-int(cp.received)) / n
		m["queue.shed"] += float64(cp.shed) / n
		m["queue.depth_max"] = max(m["queue.depth_max"], float64(cp.depthMax))
		m["server.lock_wait_ms"] += ms(cp.lockWait) / n
		m["server.lock_acquisitions"] += float64(cp.lockAcq) / n
		m["stattime.dropped_stale"] += float64(cp.stale) / n
		m["stattime.dropped_future"] += float64(cp.future) / n
		// The generator reports one p99 per pass; the worst pass's stands.
		m["gen.late_ms_p99"] = max(m["gen.late_ms_p99"], cp.genLateP99)
	}
	engineLayers(m, counts, p, es)
	m["query_ms_p50"], m["query_ms_p99"] = traced.latencies("traced query", func(p *pass) []float64 { return p.queryMS })
	m["netflow.handle_ns"] = float64(p.self(lDatagram)) / float64(max(p.calls[lDatagram].Load(), 1))
	m["queue.offer_ns"] = p.mean(lOffer)
	m["exphealth.observe_ns"] = p.mean(lHealth)
	m["export.snapshot_ms"] = p.mean(lMapped) / 1e6
	m["stattime.bin_ns"] = es.perCall("bin")
	m["core.observe_ns"] = es.perCall("observe")
	m["trace.overhead_frac"] = traced.median((*pass).cpuPerRecord)/untraced.median((*pass).cpuPerRecord) - 1
	return rep, finishTrace(rc, p, cps[len(cps)-1].tracer)
}

// timedHealth times the collector's per-datagram exporter-health hook.
type timedHealth struct {
	h     *ipd.ExporterHealth
	p     *probe
	chain *spanCtx // the receive loop's current datagram chain
}

func (t timedHealth) ObserveNetFlow(router ipd.RouterID, seq uint32, records int, exportTime time.Time, sampling uint16) {
	t0 := time.Now()
	t.h.ObserveNetFlow(router, seq, records, exportTime, sampling)
	t.p.lap(lHealth, t0, *t.chain)
}
