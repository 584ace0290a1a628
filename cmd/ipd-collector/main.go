// Command ipd-collector is the deployment shape of §5.7 in one process:
// NetFlow v5 and IPFIX UDP collectors feeding the IPD engine
// (statistical-time cleaning included), with an HTTP status surface for
// dashboards. IPFIX is the IPv6-capable input (the deployment maps v6 at
// /48).
//
//	ipd-collector -listen :2055 -ipfix :4739 -http :8080 -exporters exporters.csv
//
// The exporters file maps export source addresses to router IDs, one
// "address,router_id" pair per line. With -trust, unknown exporters are
// auto-registered with sequential router IDs (useful for lab setups; never
// do this in production).
//
// HTTP endpoints:
//
//	/ranges       current mapped ranges (Appendix-B rows)
//	/stats        collector + engine counters (JSON)
//	/metrics      Prometheus text exposition (text/plain; version=0.0.4)
//	/debug/vars   expvar-style JSON metric dump
//	/debug/pprof  net/http/pprof profiling surface
//	/ipd/ranges   filterable range snapshot (JSON)
//	/ipd/range    one range + its decision history
//	/ipd/explain  LPM walk, vote shares, and reason chain for an IP
//	/ipd/events   tail the decision journal by sequence number
//	/ipd/traces   tail the pipeline span flight recorder (JSON)
//	/ipd/governor resource-governor state, budgets, and utilization (JSON)
//	/ipd/timeline longitudinal per-cycle series (JSON, or format=csv)
//	/ipd/alerts   active flap/drift/exporter alerts and recent alert history (JSON)
//	/ipd/exporters per-exporter feed health: loss, skew, staleness, coverage (JSON)
//	/ipd/cluster  delta-shipping transport state when -ship-to is set (JSON)
//	/ipd/sketch   fixed-memory sketch tier sizing and accuracy bound when -sketch is set (JSON)
//	/healthz      liveness (503 once no stage-2 cycle completed within the stall window)
//	/readyz       readiness (additionally 503 while the last cycle overran its budget
//	              or the resource governor is in emergency)
//
// -log-level enables structured logs (one line per stage-2 cycle at info);
// -journal mirrors every range-lifecycle decision to an append-only JSONL
// file replayable with `ipd -replay`.
//
// Crash safety: -checkpoint-dir makes the daemon write CRC-guarded state
// checkpoints every -checkpoint-every stage-2 cycles (and once more on
// graceful shutdown), and restore the newest valid one on startup; with
// -journal pointing at the previous run's journal, events recorded after the
// restored checkpoint are replayed on top (the journal is then appended to,
// not truncated). Ingest is buffered through a bounded queue that sheds the
// oldest records under overload (ipd_records_shed_total) instead of silently
// dropping the newest, and SIGTERM drains the queue, flushes open statistical
// time buckets, and writes a final checkpoint before exiting.
//
// Resource governance: -max-ranges and -mem-budget bound the partition size
// and live heap; either implies -governor, which additionally watches the
// per-IP counter population and the ingest-queue depth. While degraded the
// engine defers splits and the -sample denominator is multiplied by
// -sample-boost; in emergency low-traffic subtrees are force-compacted and
// the queue admits only 1 in N offered records. A panicking range or an
// adversarial datagram is contained (quarantined range / abandoned
// datagram), never a crashed daemon.
//
// Cluster mode: -ship-to makes this collector an *edge* that ships every
// decoded record to a central `ipd -listen-delta` core over a resilient
// framed TCP transport (exponential backoff with jitter, heartbeats, a
// bounded shed-oldest spool, exactly-once resume across reconnects). The
// local engine keeps running — an edge answers its own /ipd/* queries while
// the core builds the merged, byte-deterministic central partition.
// -edge-id names this edge (must be stable and unique), -spool-cap bounds
// the records buffered while the core is unreachable, and -heartbeat tunes
// dead-connection detection.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
	"ipd/internal/node"
)

// flags holds ipd-collector's own flags next to the node options it shares
// with ipd.
type flags struct {
	node.Options
	listen, ipfix, http string
	exporters           string
	trust               bool
}

// newFlags defines every ipd-collector flag on a fresh FlagSet.
func newFlags() (*flag.FlagSet, *flags) {
	f := &flags{Options: node.Options{Ingest: &node.Ingest{}}}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	f.Register(fs)
	fs.StringVar(&f.listen, "listen", ":2055", "UDP address for NetFlow v5")
	fs.StringVar(&f.ipfix, "ipfix", "", "UDP address for IPFIX ('' disables, registered port :4739)")
	fs.StringVar(&f.http, "http", ":8080", "HTTP status address ('' disables)")
	fs.StringVar(&f.exporters, "exporters", "", "CSV file mapping exporter address to router id")
	fs.BoolVar(&f.trust, "trust", false, "auto-register unknown exporters (lab use only)")
	fs.IntVar(&f.Ingest.Queue, "queue", 1<<14, "bounded ingest queue capacity (oldest records shed under overload)")
	fs.IntVar(&f.Ingest.Sample, "sample", 1, "additional 1-in-N record sampling in front of the ingest queue (1 = keep everything; routers already sample)")
	fs.IntVar(&f.Ingest.SampleBoost, "sample-boost", 8, "multiply the -sample denominator by this factor while the governor is degraded or worse")
	fs.StringVar(&f.ShipTo, "ship-to", "", "ship every ingested record to this core address (host:port) over the resilient delta transport ('' disables cluster mode)")
	fs.StringVar(&f.EdgeID, "edge-id", "", "stable unique name for this edge in the cluster handshake (required with -ship-to)")
	fs.IntVar(&f.SpoolCap, "spool-cap", 1<<16, "delta spool capacity in records (waiting + unacked); oldest are shed under overflow")
	return fs, f
}

func main() {
	fs, f := newFlags()
	_ = fs.Parse(os.Args[1:])
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ipd-collector:", err)
		os.Exit(2)
	}
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "ipd-collector:", err)
		os.Exit(1)
	}
}

func run(f *flags) error {
	// The bounded ingest queue decouples the UDP receive loops from the
	// engine: Offer never blocks, and under overload the queue sheds the
	// *oldest* buffered records (ipd_records_shed_total) — the statistical
	// time binner would discard stale records anyway, so fresh traffic wins.
	queue := ipd.NewIngestQueue(f.Ingest.Queue)

	// The degradation sampler sits between the collectors and the queue. At
	// the configured -sample rate it is a plain 1-in-N subsampler; while the
	// governor is degraded or worse its denominator is multiplied by
	// -sample-boost, cutting inbound volume without reconfiguring exporters.
	sampler := ipd.NewFlowSampler(f.Ingest.Sample, 0)

	// The collector is a long-running daemon, so tracing and the cycle
	// watchdog are always on.
	n, err := node.Build(f.Options, node.Spec{
		Name:   "ipd-collector",
		Config: ipd.DefaultConfig(),
		Queue:  queue,
		OnGovernorTransition: func(to ipd.GovernorState) {
			if to == ipd.GovernorNormal {
				sampler.SetBoost(1)
			} else {
				sampler.SetBoost(f.Ingest.SampleBoost)
			}
		},
		Tracing: true,
	})
	if err != nil {
		return err
	}
	defer n.Close()
	srv, gov := n.Server, n.Governor
	if f.Ingest.Sample > 1 || gov != nil {
		sampler.SetMetrics(ipd.NewFlowMetrics(n.Registry))
	}

	// Cluster mode (-ship-to): every decoded record is also offered to the
	// delta sender, which ships it to the core over the resilient transport.
	// The tap sits in front of the degradation sampler and the ingest queue,
	// so the core sees the full edge stream even while local overload
	// sampling thins what this edge's own engine ingests. The governor still
	// gates the spool the way it gates the queue: in emergency, Offer sheds
	// instead of buffering.
	var shipper *ipd.DeltaSender
	if f.ShipTo != "" {
		scfg := ipd.DeltaSenderConfig{
			Target:    f.ShipTo,
			EdgeID:    f.EdgeID,
			SpoolCap:  f.SpoolCap,
			Heartbeat: f.Heartbeat,
			Logf: func(format string, args ...any) {
				n.Logger.Info("delta: "+fmt.Sprintf(format, args...), "edge", f.EdgeID)
			},
		}
		if gov != nil {
			scfg.Gate = func() bool { return gov.State() != ipd.GovernorEmergency }
		}
		shipper, err = ipd.NewDeltaSender(scfg)
		if err != nil {
			return err
		}
		shipper.RegisterMetrics(n.Registry)
		if n.Timeline != nil {
			n.Timeline.SetCluster(func() ipd.TimelineClusterCounters {
				st := shipper.Stats()
				return ipd.TimelineClusterCounters{
					Sent:          st.Sent,
					Acked:         st.Acked,
					Retransmitted: st.Retransmitted,
					Shed:          st.Shed,
					Reconnects:    st.Reconnects,
					SpoolDepth:    st.SpoolDepth,
				}
			})
		}
		n.Introspect.SetCluster(func() ipd.ClusterStatus {
			st := shipper.Stats()
			return ipd.ClusterStatus{Role: "edge", Sender: &st}
		})
		fmt.Fprintf(os.Stderr, "ipd-collector: shipping deltas to %s as edge %q\n", f.ShipTo, f.EdgeID)
	}

	// The collectors feed the queue through the degradation sampler. When no
	// sampling is configured and no governor runs, the sampler is a
	// passthrough; keep the direct Offer in that case to spare the hot path
	// a closure call per record.
	sink := queue.Offer
	if f.Ingest.Sample > 1 || gov != nil {
		sink = func(rec ipd.Record) {
			if sampler.Keep() {
				queue.Offer(rec)
			}
		}
	}
	if shipper != nil {
		inner := sink
		sink = func(rec ipd.Record) {
			shipper.Offer(rec)
			inner(rec)
		}
	}
	coll, err := netflow.NewCollector(sink)
	if err != nil {
		return err
	}
	coll.SetHealth(n.Health)
	var ipfixColl *ipfix.Collector
	if f.ipfix != "" {
		ipfixColl, err = ipfix.NewCollector(sink)
		if err != nil {
			return err
		}
		ipfixColl.SetHealth(n.Health)
	}
	if f.exporters != "" {
		count, err := loadExporters(coll, ipfixColl, f.exporters)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ipd-collector: %d exporters registered\n", count)
	}
	if f.trust {
		enableTrust(coll)
	}

	addrPort, err := coll.Listen(f.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ipd-collector: NetFlow v5 on udp://%s\n", addrPort)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 4)
	go func() { errc <- coll.Serve(ctx) }()
	engineDone := make(chan error, 1)
	go func() { engineDone <- srv.RunQueue(ctx, queue) }()
	if ipfixColl != nil {
		ipfixPort, err := ipfixColl.Listen(f.ipfix)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ipd-collector: IPFIX on udp://%s\n", ipfixPort)
		go func() { errc <- ipfixColl.Serve(ctx) }()
	}

	if f.http != "" {
		registerCollectorMetrics(n.Registry, coll, ipfixColl)
		mux := n.Mux
		mux.HandleFunc("/ranges", func(w http.ResponseWriter, _ *http.Request) {
			mapped := srv.Mapped()
			if err := ipd.WriteOutputSnapshot(w, time.Now(), mapped, nil); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			eng, bin := srv.Stats()
			st := coll.Stats()
			out := map[string]any{
				"collector": map[string]uint64{
					"datagrams":        st.Datagrams.Load(),
					"records":          st.Records.Load(),
					"malformed":        st.Malformed.Load(),
					"unknown_exporter": st.UnknownExporter.Load(),
					"panics":           st.Panics.Load(),
				},
				"engine": map[string]any{
					"records":         eng.Records,
					"cycles":          eng.Cycles,
					"classifications": eng.Classifications,
					"invalidations":   eng.Invalidations,
					"expirations":     eng.Expirations,
					"splits":          eng.Splits,
					"joins":           eng.Joins,
					"drops":           eng.Drops,
					"active_ranges":   eng.LastCycleRanges,
				},
				"stattime": map[string]uint64{
					"accepted":       bin.Accepted,
					"dropped_stale":  bin.DroppedStale,
					"dropped_future": bin.DroppedFuture,
				},
				"exporters": n.Health.Summary(),
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(out)
		})
		httpSrv := &http.Server{Addr: f.http, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutdownCtx)
		}()
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- err
			}
		}()
		fmt.Fprintf(os.Stderr, "ipd-collector: status on http://%s\n", f.http)
	}

	select {
	case err = <-errc:
	case err = <-engineDone:
		engineDone = nil
	}
	stop()
	queue.Close()
	if engineDone != nil {
		// Wait out the engine's final drain, flush, cycle and checkpoint.
		<-engineDone
	}
	if shipper != nil {
		// Graceful shutdown flushes the spool: stop accepting new records,
		// give the supervisor a bounded window to ship and collect acks for
		// what is buffered, then tear the connection down. Unshipped records
		// after the window are lost to the core (never to the local engine).
		shipper.CloseInput()
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if derr := shipper.Drain(drainCtx); derr != nil {
			st := shipper.Stats()
			fmt.Fprintf(os.Stderr, "ipd-collector: delta drain: %v (%d records unacked)\n", derr, st.SpoolDepth)
		}
		cancel()
		_ = shipper.Close()
	}
	if err == context.Canceled {
		return nil
	}
	return err
}

// registerCollectorMetrics exposes the UDP collectors' atomic counters on
// the shared registry, read lazily at scrape time (the IPFIX collector may
// be nil).
func registerCollectorMetrics(reg *ipd.TelemetryRegistry, coll *netflow.Collector, ipfixColl *ipfix.Collector) {
	nf := coll.Stats()
	reg.CounterFunc("ipd_netflow_datagrams_total",
		"NetFlow v5 datagrams received.", func() float64 { return float64(nf.Datagrams.Load()) })
	reg.CounterFunc("ipd_netflow_records_total",
		"NetFlow v5 records parsed.", func() float64 { return float64(nf.Records.Load()) })
	reg.CounterFunc("ipd_netflow_malformed_total",
		"Malformed NetFlow v5 datagrams.", func() float64 { return float64(nf.Malformed.Load()) })
	reg.CounterFunc("ipd_netflow_unknown_exporter_total",
		"NetFlow v5 datagrams from unregistered exporters.", func() float64 { return float64(nf.UnknownExporter.Load()) })
	reg.CounterFunc("ipd_netflow_panics_total",
		"NetFlow v5 datagrams abandoned after a contained decode/sink panic.", func() float64 { return float64(nf.Panics.Load()) })
	if ipfixColl == nil {
		return
	}
	ix := ipfixColl.Stats()
	reg.CounterFunc("ipd_ipfix_messages_total",
		"IPFIX messages received.", func() float64 { return float64(ix.Messages.Load()) })
	reg.CounterFunc("ipd_ipfix_records_total",
		"IPFIX data records parsed.", func() float64 { return float64(ix.Records.Load()) })
	reg.CounterFunc("ipd_ipfix_malformed_total",
		"Malformed IPFIX messages.", func() float64 { return float64(ix.Malformed.Load()) })
	reg.CounterFunc("ipd_ipfix_unknown_template_total",
		"IPFIX records skipped for unknown templates.", func() float64 { return float64(ix.UnknownTemplate.Load()) })
	reg.CounterFunc("ipd_ipfix_panics_total",
		"IPFIX messages abandoned after a contained decode/sink panic.", func() float64 { return float64(ix.Panics.Load()) })
}

// loadExporters reads "address,router_id" lines and registers them with
// both collectors (the IPFIX one may be nil).
func loadExporters(c *netflow.Collector, ic *ipfix.Collector, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return n, fmt.Errorf("exporters: bad line %q", line)
		}
		addr, err := netip.ParseAddr(strings.TrimSpace(parts[0]))
		if err != nil {
			return n, fmt.Errorf("exporters: %v", err)
		}
		id, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 16)
		if err != nil {
			return n, fmt.Errorf("exporters: %v", err)
		}
		c.RegisterExporter(addr, ipd.RouterID(id))
		if ic != nil {
			ic.RegisterExporter(addr, ipd.RouterID(id))
		}
		n++
	}
	return n, sc.Err()
}

// enableTrust auto-registers unknown exporters with sequential router IDs
// (lab setups only; production must pre-register its border routers).
func enableTrust(c *netflow.Collector) {
	var mu sync.Mutex
	next := ipd.RouterID(1)
	c.SetUnknownPolicy(func(addr netip.Addr) (ipd.RouterID, bool) {
		mu.Lock()
		defer mu.Unlock()
		id := next
		next++
		fmt.Fprintf(os.Stderr, "ipd-collector: auto-registered exporter %v as router %d\n", addr, id)
		return id, true
	})
}
