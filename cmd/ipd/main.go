// Command ipd runs the Ingress Point Detection engine on a flow trace
// (binary trace format from flowgen, or CSV) and emits the raw IPD output
// rows (Appendix B format) every output bin.
//
// Usage:
//
//	flowgen -minutes 30 -o trace.ipd
//	ipd -in trace.ipd -factor4 0.01 -bin 5m
//	ipd -in trace.csv -format csv -summary
//	ipd -in trace.ipd -log-level info -debug-http :8080
//	ipd -in trace.ipd -journal decisions.jsonl -explain 10.1.2.3
//	ipd -in trace.ipd -trace-out trace.json
//	ipd -replay decisions.jsonl
//
// -log-level info emits one structured log line per stage-2 cycle;
// -debug-http serves /metrics (Prometheus), /debug/vars (JSON dump),
// /debug/pprof, the /ipd/* introspection API (ranges, range history,
// explain, event tail, trace-span tail), and the watchdog's /healthz and
// /readyz probes while the trace is processed. -journal mirrors every
// range-lifecycle decision to an append-only JSONL file; -replay
// reconstructs the final partition from such a file without rerunning the
// trace. -explain prints the decision provenance for one or more IPs after
// the run. -trace-out writes the span flight recorder as a Chrome
// trace-event JSON file (Perfetto / chrome://tracing) after the run;
// -trace-cap and -trace-sample size the recorder and the 1-in-N per-record
// span sampling.
//
// Crash safety: -checkpoint-dir makes the run periodically write the full
// engine state as a CRC-guarded checkpoint file (every -checkpoint-every
// stage-2 cycles, plus a final one), and on startup restore the newest valid
// checkpoint from that directory; when -journal points at the journal of the
// interrupted run, the events recorded after the restored checkpoint (all
// of them, if the run died before its first checkpoint) are replayed on
// top, so the partition is the one the previous process last journaled
// (the journal file is then appended to, not truncated). The trace itself
// is read again from its first record: a restart resumes the partition,
// not the position in the input.
// -resync switches the binary trace reader into degraded-mode ingest:
// corrupt byte stretches are scanned past (counted in
// ipd_records_resync_total) instead of aborting the run.
//
// Resource governance: -max-ranges and -mem-budget bound the partition size
// and live heap; either implies -governor, which evaluates the budgets every
// stage-2 cycle and degrades gracefully (defer splits while degraded,
// force-compact low-traffic subtrees in emergency) instead of growing
// without bound under adversarial traffic. Governor state is served at
// /ipd/governor on the debug server, drives /readyz (503 in emergency), and
// lands in the journal as governor events.
//
// Longitudinal observability: a bounded in-process timeline samples the
// engine at the end of every stage-2 cycle (-timeline-every thins the
// cadence, -timeline-window sizes the per-series ring, 0 disables) and runs
// flap/drift/convergence analytics on top; alerts land in the journal as
// alert events and the series are served at /ipd/timeline (JSON or
// format=csv) next to /ipd/alerts on the debug server. -mutexprofile
// enables runtime mutex/block profiling for /debug/pprof/{mutex,block}.
//
// Input data quality: an exporter-health tracker accounts the records each
// router contributes and folds them into a per-router coverage score every
// cycle; classifications made while a router's feed is stale carry a
// degraded-coverage annotation in the journal, -explain, and /ipd/explain.
// -exporter-stale-after sets the silence threshold; -skew-max bounds
// export-clock skew (it only matters for the UDP collectors — trace files
// carry no export clock). The per-feed state is served at /ipd/exporters.
//
// Cluster core: -listen-delta turns this binary into the central node of an
// edge→core deployment. Instead of reading a trace it accepts delta
// sessions from `ipd-collector -ship-to` edges, dedupes on per-edge record
// offsets, merges the streams in deterministic statistical-time order
// (-edges lists the edge IDs the merge gate waits for; -merge-stall trades
// that determinism for liveness when an edge dies), and feeds the merged
// stream through the same engine, binning, and observability pipeline —
// the resulting partition is byte-identical to a single node ingesting the
// concatenated edge traffic. With -checkpoint-dir the core checkpoints the
// engine state together with the per-edge applied offsets and acks edges
// only up to what is durably on disk, so a kill -9 restart loses nothing:
// everything past the restored offsets is still spooled on some edge and
// is redelivered on reconnect. Transport state is served at /ipd/cluster.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/flow"
	"ipd/internal/node"
)

// flags holds ipd's own flags next to the node options it shares with
// ipd-collector.
type flags struct {
	node.Options
	in, format         string
	factor6            float64
	cidrMax4, cidrMax6 int
	t, e, bin          time.Duration
	bytes, summary     bool
	debugHTTP          string
	explain, replay    string
	traceOut           string
	resync             bool
	edges              string
}

// newFlags defines every ipd flag on a fresh FlagSet.
func newFlags() (*flag.FlagSet, *flags) {
	f := &flags{}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	f.Register(fs)
	fs.StringVar(&f.in, "in", "-", "input trace file ('-' = stdin)")
	fs.StringVar(&f.format, "format", "binary", "input format: binary or csv")
	fs.Float64Var(&f.factor6, "factor6", 1e-8, "IPv6 n_cidr factor")
	fs.IntVar(&f.cidrMax4, "cidrmax4", 28, "IPv4 cidr_max")
	fs.IntVar(&f.cidrMax6, "cidrmax6", 48, "IPv6 cidr_max")
	fs.DurationVar(&f.t, "t", time.Minute, "cycle length")
	fs.DurationVar(&f.e, "e", 2*time.Minute, "per-IP state expiration")
	fs.DurationVar(&f.bin, "bin", 5*time.Minute, "output bin length")
	fs.BoolVar(&f.bytes, "bytes", false, "count bytes instead of flows")
	fs.BoolVar(&f.summary, "summary", false, "print only the final summary")
	fs.StringVar(&f.debugHTTP, "debug-http", "", "serve /metrics, /debug/vars, /debug/pprof, and /ipd/* introspection on this address while processing ('' disables)")
	fs.StringVar(&f.explain, "explain", "", "comma-separated IPs: print decision provenance for each after the run")
	fs.StringVar(&f.replay, "replay", "", "replay a JSONL decision journal and print the reconstructed partition (no trace is read)")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the flight recorder as Chrome trace-event JSON (load in Perfetto / chrome://tracing) after the run ('' disables)")
	fs.BoolVar(&f.resync, "resync", false, "degraded-mode ingest: scan past corrupt bytes in the binary trace instead of aborting (counted in ipd_records_resync_total)")
	fs.StringVar(&f.ListenDelta, "listen-delta", "", "run as the cluster core: accept edge delta sessions on this TCP address instead of reading a trace ('' disables)")
	fs.StringVar(&f.edges, "edges", "", "comma-separated edge IDs the deterministic merge waits for (with -listen-delta; '' merges edges as they appear, order then depends on join timing)")
	fs.DurationVar(&f.MergeStall, "merge-stall", 0, "exclude a silent edge from the merge gate after this long (0 = never: the merge stays deterministic but stalls while an edge is down)")
	return fs, f
}

func main() {
	fs, f := newFlags()
	_ = fs.Parse(os.Args[1:])
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(1)
	}
}

// splitEdges parses the comma-separated -edges list, dropping empty items.
func splitEdges(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// replay implements -replay: rebuild the partition from a decision log.
func replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rp, err := ipd.ReplayJournal(bufio.NewReader(f))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	views := rp.Snapshot()
	for _, v := range views {
		if v.Classified {
			fmt.Fprintf(out, "%s\t%s\n", v.Prefix, v.Ingress)
		} else {
			fmt.Fprintf(out, "%s\tunclassified\n", v.Prefix)
		}
	}
	fmt.Fprintf(os.Stderr, "ipd: replayed %d events into %d active ranges\n", rp.Seq(), len(views))
	return nil
}

// serveDebug serves the node's debug mux while a run is in flight
// (best-effort: the process exits with the run).
func serveDebug(addr string, mux http.Handler) {
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ipd: debug http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "ipd: debug endpoints on http://%s\n", addr)
}

func run(f *flags) error {
	if f.replay != "" {
		return replay(f.replay)
	}
	var r io.Reader = os.Stdin
	if f.in != "-" && f.ListenDelta == "" {
		in, err := os.Open(f.in)
		if err != nil {
			return err
		}
		defer in.Close()
		r = in
	}

	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor6 = f.factor6
	cfg.CIDRMax4, cfg.CIDRMax6 = f.cidrMax4, f.cidrMax6
	cfg.T, cfg.E = f.t, f.e
	cfg.CountBytes = f.bytes
	// Tracing runs whenever anything can consume it: a Chrome export file or
	// the debug server's /ipd/traces tail.
	n, err := node.Build(f.Options, node.Spec{
		Name:    "ipd",
		Config:  cfg,
		Cluster: f.ListenDelta != "",
		Tracing: f.traceOut != "" || f.debugHTTP != "",
	})
	if err != nil {
		return err
	}
	defer n.Close()
	eng := n.Engine
	flowMetrics := ipd.NewFlowMetrics(n.Registry)

	// Cluster core (-listen-delta): records arrive from edge senders over
	// the resilient delta transport instead of a trace file. The receiver is
	// built here (before the debug server mounts) so /ipd/cluster and the
	// timeline delta.* series attach race-free; its Apply callback is bound
	// below, after the record-handling closure exists — Serve starts later,
	// so the late binding is never observed.
	var recv *ipd.DeltaReceiver
	var applyBatch func([]ipd.Record, map[string]uint64) error
	if f.ListenDelta != "" {
		recv, err = ipd.NewDeltaReceiver(ipd.DeltaReceiverConfig{
			Edges:       splitEdges(f.edges),
			Heartbeat:   f.Heartbeat,
			MergeStall:  f.MergeStall,
			DurableAcks: n.Checkpoints != nil,
			Apply: func(recs []ipd.Record, app map[string]uint64) error {
				return applyBatch(recs, app)
			},
			Logf: func(format string, args ...any) {
				n.Logger.Info("delta: " + fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return err
		}
		recv.SetApplied(n.Applied)
		recv.RegisterMetrics(n.Registry)
		if n.Timeline != nil {
			n.Timeline.SetCluster(func() ipd.TimelineClusterCounters {
				st := recv.Stats()
				cc := ipd.TimelineClusterCounters{
					Applied:  st.Applied,
					Sessions: st.Sessions,
				}
				for _, e := range st.Edges {
					cc.Duplicates += e.Duplicates
					cc.Gaps += e.Gaps
					cc.Pending += e.Pending
				}
				return cc
			})
		}
		n.Introspect.SetCluster(func() ipd.ClusterStatus {
			st := recv.Stats()
			return ipd.ClusterStatus{Role: "core", Receiver: &st}
		})
	}
	if f.debugHTTP != "" {
		serveDebug(f.debugHTTP, n.Mux)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var nextBin time.Time
	var implausible int
	emit := func(at time.Time) error {
		if f.summary {
			return nil
		}
		return ipd.WriteOutputSnapshot(out, at, eng.Mapped(), nil)
	}
	// maxJump bounds how far a single record may advance the clock. A corrupt
	// record that mis-decodes into a timestamp centuries ahead would otherwise
	// drive the bin-advance loop (and the engine's cycle loop) effectively
	// forever. Week-long gaps in a legitimate trace still advance cheaply.
	const maxJump = 7 * 24 * time.Hour
	handle := func(rec ipd.Record) error {
		n.Lock()
		defer n.Unlock()
		if nextBin.IsZero() {
			nextBin = rec.Ts.Truncate(f.bin).Add(f.bin)
		}
		if rec.Ts.After(nextBin.Add(maxJump)) {
			if !f.resync {
				return fmt.Errorf("record timestamp %v jumps more than %v past the current bin %v (corrupt input? try -resync)",
					rec.Ts, maxJump, nextBin)
			}
			implausible++
			return nil
		}
		for !rec.Ts.Before(nextBin) {
			eng.AdvanceTo(nextBin)
			if err := emit(nextBin); err != nil {
				return err
			}
			nextBin = nextBin.Add(f.bin)
		}
		n.Health.ObserveRecord(rec.In.Router)
		n.Workload.ObserveRecord(rec)
		eng.Feed(rec)
		return nil
	}
	// save writes a checkpoint (on a core, the envelope with the per-edge
	// offsets applied so far). Failures are counted and logged; the run goes
	// on with the previous checkpoint intact.
	save := func(applied map[string]uint64) bool {
		if err := n.Save(applied); err != nil {
			fmt.Fprintln(os.Stderr, "ipd: checkpoint:", err)
			return false
		}
		return true
	}

	var count int
	if recv != nil {
		// MarkDurable follows a successful save only: an ack licenses the
		// senders to discard, so a failed save must leave every unpersisted
		// record in some spool.
		applyBatch = func(recs []ipd.Record, app map[string]uint64) error {
			for _, rec := range recs {
				if err := handle(rec); err != nil {
					return err
				}
				count++
			}
			if n.CheckpointDue() && save(app) {
				recv.MarkDurable(app)
			}
			return nil
		}

		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSig()
		ln, err := net.Listen("tcp", f.ListenDelta)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ipd: core accepting deltas on tcp://%s (edges %v)\n", ln.Addr(), splitEdges(f.edges))
		serveErr := make(chan error, 1)
		go func() { serveErr <- recv.Serve(ln) }()
		var srvErr error
		select {
		case <-ctx.Done():
			_ = recv.Close()
			srvErr = <-serveErr
		case <-recv.Done():
			// Every expected edge sent Fin and its stream is fully applied.
			// Persist the final checkpoint and let the last acks flush
			// before tearing the sessions down — the edges' shutdown Drain
			// is waiting on exactly those acks to empty their spools.
			if n.Checkpoints != nil && save(recv.Applied()) {
				recv.MarkDurable(recv.Applied())
			}
			time.Sleep(f.Heartbeat / 2)
			_ = recv.Close()
			srvErr = <-serveErr
		case srvErr = <-serveErr:
		}
		if srvErr != nil && recv.Err() != nil {
			return fmt.Errorf("delta receiver: %v", recv.Err())
		}
	} else {
		var read func() (ipd.Record, error) // io.EOF ends the input
		switch f.format {
		case "binary":
			tr := ipd.NewTraceReader(r)
			tr.SetMetrics(flowMetrics)
			tr.SetTracer(n.Tracer)
			tr.SetResync(f.resync)
			read = tr.Read
		case "csv":
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			read = func() (ipd.Record, error) {
				for sc.Scan() {
					if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
						return flow.ParseCSV(line)
					}
				}
				if err := sc.Err(); err != nil {
					return ipd.Record{}, err
				}
				return ipd.Record{}, io.EOF
			}
		default:
			return fmt.Errorf("unknown format %q (want binary or csv)", f.format)
		}
		for {
			rec, err := read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := handle(rec); err != nil {
				return err
			}
			count++
			if n.CheckpointDue() {
				save(nil)
			}
		}
	}

	n.Lock()
	eng.ForceCycle()
	err = emit(eng.Now())
	n.Unlock()
	if err != nil {
		return err
	}
	if n.Checkpoints != nil {
		var applied map[string]uint64
		if recv != nil {
			applied = recv.Applied()
		}
		save(applied)
	}
	if f.explain != "" {
		n.Lock()
		err := explain(os.Stderr, eng, n.Journal, f.explain)
		n.Unlock()
		if err != nil {
			return err
		}
	}
	if implausible > 0 {
		fmt.Fprintf(os.Stderr, "ipd: skipped %d records with implausible timestamps (degraded input)\n", implausible)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr,
		"ipd: %d records, %d cycles, %d classifications (%d invalidated, %d expired), %d splits, %d joins, %d drops, %d active ranges, %d mapped, %d journal events\n",
		count, st.Cycles, st.Classifications, st.Invalidations, st.Expirations,
		st.Splits, st.Joins, st.Drops, eng.RangeCount(), len(eng.Mapped()), n.Journal.Recorded())
	if err := n.Journal.SinkErr(); err != nil {
		return fmt.Errorf("journal sink: %v", err)
	}
	if f.traceOut != "" {
		if err := writeTrace(f.traceOut, n.Tracer); err != nil {
			return fmt.Errorf("trace export: %v", err)
		}
	}
	return nil
}

// writeTrace dumps the flight recorder to path in Chrome trace-event format.
func writeTrace(path string, tracer *ipd.Tracer) error {
	spans := tracer.Recorder().Tail(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ipd.WriteChromeTrace(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ipd: wrote %d trace spans to %s\n", len(spans), path)
	return nil
}

// explain prints the decision provenance for a comma-separated IP list.
func explain(w io.Writer, src ipd.IntrospectSource, j *ipd.Journal, ips string) error {
	for _, s := range strings.Split(ips, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		addr, err := netip.ParseAddr(s)
		if err != nil {
			return fmt.Errorf("-explain: bad ip %q: %v", s, err)
		}
		ex, ok := src.Explain(addr)
		if !ok {
			fmt.Fprintf(w, "ipd: explain %s: no active range\n", addr)
			continue
		}
		fmt.Fprintf(w, "ipd: explain %s\n", addr)
		parts := make([]string, len(ex.Path))
		for i, p := range ex.Path {
			parts[i] = p.String()
		}
		fmt.Fprintf(w, "  path:    %s\n", strings.Join(parts, " > "))
		fmt.Fprintf(w, "  verdict: %s\n", ex.VerdictString())
		if ex.Coverage != nil {
			fmt.Fprintf(w, "  caveat:  %s\n", ex.Coverage)
		}
		if ex.Sketch != nil {
			fmt.Fprintf(w, "  caveat:  %s\n", ex.Sketch)
		}
		for _, sh := range ex.Shares {
			fmt.Fprintf(w, "  vote:    %s share %.3f (%.0f samples)\n", sh.Ingress, sh.Share, sh.Count)
		}
		for _, ev := range j.History(ex.Range.Prefix.String()) {
			fmt.Fprintf(w, "  event:   seq %d cycle %d %s %s (%s)\n",
				ev.Seq, ev.Cycle, ev.Kind, ev.Prefix, ev.Reason)
		}
	}
	return nil
}
