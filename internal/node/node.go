// Package node assembles one IPD node — the engine plus everything the
// ipd and ipd-collector binaries attach to it — from one Options struct
// that the flag layer fills in. Build wires, in one place: the structured
// logger, the decision journal and its JSONL sink, exporter health, the
// workload profiler, the timeline (or the bare cycle tick without it), the
// resource governor, metric registration, checkpoint restore, the tracer
// and cycle watchdog, and the debug mux. Each binary keeps only its input
// path: trace files and the delta receiver in ipd, the UDP collectors,
// ingest queue and delta shipper in ipd-collector.
package node

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"net/netip"
	"os"
	"runtime"
	"sync"

	"ipd"
)

// Spec is what a binary adds to its Options: the engine parameters only it
// exposes and the shape of its ingest path.
type Spec struct {
	// Name prefixes the node's stderr lines ("ipd", "ipd-collector").
	Name string
	// Config carries the engine parameters Options does not hold (ipd's
	// -factor6, -cidrmax4/6, -t, -e, -bytes); start from ipd.DefaultConfig.
	// Build overwrites the fields Options owns and the observer hooks.
	Config ipd.Config
	// Queue, when set, makes a collector node: a Server with statistical
	// time drains it, and the governor watches its depth. Without it the
	// node holds a bare Engine that the caller feeds under Lock.
	Queue *ipd.IngestQueue
	// OnGovernorTransition, when set, runs after each governor transition.
	OnGovernorTransition func(to ipd.GovernorState)
	// Cluster makes checkpoints the cluster envelope (engine state plus the
	// per-edge applied offsets) and skips the journal-tail replay: a core's
	// transport redelivers everything past the restored offsets.
	Cluster bool
	// Tracing builds the span tracer and the cycle watchdog, and with them
	// /healthz and /readyz.
	Tracing bool
}

// Node is one assembled IPD node. Optional parts are nil when their flags
// leave them off.
type Node struct {
	// Mutex guards Engine against the debug readers; the caller's feed
	// loop holds it around Feed and AdvanceTo. A Server locks internally.
	sync.Mutex

	Engine *ipd.Engine // trace or cluster-core node; nil with Spec.Queue
	Server *ipd.Server // collector node; nil without Spec.Queue

	Logger      *slog.Logger
	Registry    *ipd.TelemetryRegistry
	Journal     *ipd.Journal
	Health      *ipd.ExporterHealth
	Workload    *ipd.WorkloadProfiler
	Timeline    *ipd.TimelineCollector // -timeline-window > 0
	Governor    *ipd.Governor          // -governor, -max-ranges or -mem-budget
	Checkpoints *ipd.CheckpointManager // -checkpoint-dir
	Tracer      *ipd.Tracer            // Spec.Tracing
	Watchdog    *ipd.Watchdog          // Spec.Tracing

	// Applied holds the per-edge offsets a cluster restore returned, for
	// DeltaReceiver.SetApplied; nil on a cold start.
	Applied map[string]uint64

	// Introspect serves /ipd/ on Mux; the caller adds its cluster status.
	Introspect *ipd.IntrospectHandler
	// Mux carries /metrics, /debug/vars, /debug/pprof, /ipd/ and, with a
	// watchdog, /healthz and /readyz. The caller serves it and may add
	// routes before it does.
	Mux *http.ServeMux

	opts        Options
	spec        Spec
	journalFile *os.File
	lastCkpt    uint64 // engine cycle count at the last checkpoint
}

// Build assembles a node from validated options. With -checkpoint-dir it
// restores the newest valid checkpoint and replays the tail of the previous
// run's journal on top; Close releases the journal file.
func Build(opts Options, spec Spec) (*Node, error) {
	lvl, err := opts.logLevel()
	if err != nil {
		return nil, err
	}
	if opts.MutexProfile > 0 {
		runtime.SetMutexProfileFraction(opts.MutexProfile)
		runtime.SetBlockProfileRate(opts.MutexProfile)
	}
	n := &Node{
		opts:   opts,
		spec:   spec,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})),
	}
	if err := n.build(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// build wires the parts in dependency order: observers before the engine
// config they hook into, the engine before the registry users.
func (n *Node) build() (err error) {
	opts, spec := n.opts, n.spec
	cfg := spec.Config
	cfg.Logger = n.Logger
	cfg.NCidrFactor4 = opts.Factor4
	cfg.NCidrFloor = opts.Floor
	cfg.Q = opts.Q
	if opts.Sketch {
		cfg.Sketch = true
		cfg.SketchWidth = opts.SketchWidth
		cfg.SketchDepth = opts.SketchDepth
		cfg.SketchExactMargin = opts.SketchExactMargin
	}

	// The decision journal records every lifecycle event; -journal adds the
	// durable JSONL sink. Each event is one Write on an unbuffered file, so
	// a killed process leaves only whole lines behind. With -checkpoint-dir
	// the file is opened in append mode: its tail is the replay source for
	// crash recovery.
	jopts := ipd.JournalOptions{Capacity: opts.JournalCap}
	journaled := false // the journal file holds a previous run's events
	if opts.Journal != "" {
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if opts.CheckpointDir != "" {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		if n.journalFile, err = os.OpenFile(opts.Journal, mode, 0o644); err != nil {
			return err
		}
		st, err := n.journalFile.Stat()
		if err != nil {
			return err
		}
		journaled = st.Size() > 0
		jopts.Sink = n.journalFile
	}
	n.Journal = ipd.NewJournal(jopts)
	observe := n.Journal.Record

	// The exporter-health tracker accounts the records each router
	// contributes and folds them into a per-router coverage score every
	// cycle; classifications made over a degraded feed carry a
	// ReasonDegradedCoverage annotation.
	n.Health = ipd.NewExporterHealth(ipd.ExporterHealthOptions{
		StaleAfter: opts.ExporterStaleAfter,
		SkewMax:    opts.SkewMax,
	})
	cfg.Coverage = n.Health.IngressCoverage
	// The workload profiler: heavy-hitter /24 (v6 /48) aggregates, simulated
	// shard balance and batch locality, in fixed memory. Export-to-ingest
	// latency is corrected by the health tracker's per-router skew.
	n.Workload = ipd.NewWorkloadProfiler(ipd.WorkloadOptions{
		TopK:     opts.WorkloadTopK,
		MaxDepth: opts.WorkloadMaxDepth,
		Skew:     n.Health.RouterSkew,
	})

	// The timeline turns the end-of-cycle samples and the event stream into
	// longitudinal series plus flap/drift/convergence analytics, and drives
	// the exporter-health and workload cycle ticks. Without it the tracker
	// and profiler are still ticked on statistical time (but raise no alerts).
	if opts.TimelineWindow > 0 {
		n.Timeline = ipd.NewTimelineCollector(ipd.TimelineOptions{Window: opts.TimelineWindow})
		n.Timeline.SetExporterHealth(n.Health)
		n.Timeline.SetWorkload(n.Workload)
		observe = func(ev ipd.Event) {
			n.Journal.Record(ev)
			n.Timeline.ObserveEvent(ev)
		}
		cfg.OnCycle = n.Timeline.OnCycle
		cfg.OnCycleEvery = opts.TimelineEvery
	} else {
		cfg.OnCycle = func(s ipd.CycleSample) []ipd.Alert {
			n.Health.Tick(s.At)
			n.Workload.TickCycle(s.Cycle, s.At)
			return nil
		}
	}
	// The engine emits its root `created` events while it is constructed.
	// They are held until restore has run: a cold start journals them; a
	// start from a checkpoint or on top of an existing journal drops them,
	// since appending them again would put seq 1 after the journal's tail.
	var held []ipd.Event
	live := false
	cfg.OnEvent = func(ev ipd.Event) {
		if live {
			observe(ev)
		} else {
			held = append(held, ev)
		}
	}

	// The governor is part of the engine config; a collector's governor
	// also watches the ingest-queue depth.
	if opts.governed() {
		gcfg := ipd.GovernorConfig{
			MaxRanges:  opts.MaxRanges,
			MemBudget:  uint64(opts.MemBudget),
			SketchTier: opts.Sketch,
			OnTransition: func(from, to ipd.GovernorState, _ ipd.GovernorUsage) {
				n.Logger.Warn("governor transition", "from", from.String(), "to", to.String())
				if spec.OnGovernorTransition != nil {
					spec.OnGovernorTransition(to)
				}
			},
		}
		if spec.Queue != nil {
			gcfg.QueueCap = spec.Queue.Cap()
			gcfg.QueueDepth = spec.Queue.Len
		}
		if n.Governor, err = ipd.NewGovernor(gcfg); err != nil {
			return err
		}
		cfg.Governor = n.Governor
		cfg.MaxRanges = opts.MaxRanges
	}

	var src source
	if spec.Queue != nil {
		if n.Server, err = ipd.NewServer(cfg, ipd.DefaultStatTimeConfig()); err != nil {
			return err
		}
		n.Server.SetWorkload(n.Workload.ObserveBatch)
		n.Registry = n.Server.Telemetry()
		src = n.Server
	} else {
		if n.Engine, err = ipd.NewEngine(cfg); err != nil {
			return err
		}
		n.Registry = n.Engine.Telemetry()
		src = lockedEngine{n}
	}

	reg := n.Registry
	n.Journal.RegisterMetrics(reg)
	n.Health.RegisterMetrics(reg)
	n.Workload.RegisterMetrics(reg)
	if n.Timeline != nil {
		n.Timeline.RegisterMetrics(reg)
		if n.Server != nil {
			// The ingest-lock contention series is the one wall-clock input;
			// it lands only in the timeline store, never in journaled events.
			n.Timeline.SetContention(n.Server.LockContention)
		}
	}
	if n.Governor != nil {
		n.Governor.RegisterMetrics(reg)
	}
	if spec.Queue != nil {
		spec.Queue.RegisterMetrics(reg)
		if n.Governor != nil {
			// During emergency the queue admits 1 in EmergencyAdmitN offered
			// records — deterministic, so the subsample stays unbiased.
			spec.Queue.SetAdmission(n.Governor.AdmitIngest)
		}
	}

	warm := journaled
	if opts.CheckpointDir != "" {
		if n.Checkpoints, err = ipd.NewCheckpointManager(ipd.CheckpointOptions{Dir: opts.CheckpointDir, Registry: reg}); err != nil {
			return err
		}
		loaded, err := n.restore()
		if err != nil {
			return err
		}
		warm = warm || loaded
		if n.Server != nil {
			// The server checkpoints at ingest-batch boundaries, off the
			// engine lock, plus once more at graceful shutdown.
			n.Server.SetCheckpoint(n.Checkpoints, opts.CheckpointEvery)
		} else {
			n.lastCkpt = n.Engine.Cycles()
		}
	}
	if !warm {
		for _, ev := range held {
			observe(ev)
		}
	}
	live = true

	// Tracing: the flight recorder backs /ipd/traces, the per-phase
	// histograms land on /metrics, and the watchdog turns cycle spans into
	// /healthz (stall) and /readyz (overrun, governor emergency) state.
	// Without it the hot paths pay only a nil check.
	if spec.Tracing {
		n.Tracer = ipd.NewTracer(ipd.TracerOptions{
			Capacity: opts.TraceCap,
			SampleN:  opts.TraceSample,
			Registry: reg,
		})
		if n.Server != nil {
			n.Server.SetTracer(n.Tracer)
		} else {
			n.Engine.SetTracer(n.Tracer)
		}
		if n.Watchdog, err = ipd.NewWatchdog(ipd.WatchdogConfig{Interval: cfg.T, Registry: reg}); err != nil {
			return err
		}
		n.Tracer.SetOnSpan(n.Watchdog.ObserveSpan)
		if n.Governor != nil {
			n.Watchdog.SetGovernor(n.Governor)
		}
	}

	n.Introspect = ipd.NewIntrospectHandler(src, n.Journal)
	if n.Tracer != nil {
		n.Introspect.SetTraces(n.Tracer.Recorder())
	}
	if n.Governor != nil {
		n.Introspect.SetGovernor(n.Governor)
	}
	if n.Timeline != nil {
		n.Introspect.SetTimeline(n.Timeline)
	}
	n.Introspect.SetExporterHealth(n.Health)
	n.Introspect.SetWorkload(n.Workload)
	if opts.Sketch {
		n.Introspect.SetSketch(src.SketchStatus)
	}
	ipd.RegisterProcessMetrics(reg)
	n.Mux = http.NewServeMux()
	n.Mux.Handle("/metrics", reg.Handler())
	n.Mux.Handle("/debug/vars", reg.JSONHandler())
	n.Mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof's routes
	n.Mux.Handle("/ipd/", n.Introspect)
	if n.Watchdog != nil {
		n.Mux.Handle("/healthz", n.Watchdog.HealthzHandler())
		n.Mux.Handle("/readyz", n.Watchdog.ReadyzHandler())
	}
	return nil
}

// restore loads the newest valid checkpoint, if any, and reports whether
// it found one. The tail of the previous run's journal (events past the
// engine's sequence number, the whole journal after a run that died before
// its first checkpoint) is replayed on top. A cluster checkpoint instead
// yields the per-edge applied offsets, and its transport redelivers the
// rest.
func (n *Node) restore() (bool, error) {
	load, apply, seq := n.Engine.UnmarshalState, n.Engine.ApplyEvent, n.Engine.Seq
	if n.Server != nil {
		load, apply, seq = n.Server.RestoreCheckpoint, n.Server.ApplyEvent, n.Server.Seq
	}
	kind := "checkpoint"
	if n.spec.Cluster {
		kind = "cluster checkpoint"
		load = func(env []byte) error {
			state, applied, err := ipd.DecodeClusterCheckpoint(env)
			if err != nil {
				return err
			}
			if err := n.Engine.UnmarshalState(state); err != nil {
				return err
			}
			n.Applied = applied
			return nil
		}
	}
	path, err := n.Checkpoints.Load(load)
	loaded := err == nil
	switch {
	case errors.Is(err, ipd.ErrNoCheckpoint):
	case err != nil:
		return false, fmt.Errorf("%s restore: %v", kind, err)
	case n.spec.Cluster:
		fmt.Fprintf(os.Stderr, "%s: restored cluster checkpoint %s (seq %d, %d edges)\n", n.spec.Name, path, seq(), len(n.Applied))
	default:
		fmt.Fprintf(os.Stderr, "%s: restored checkpoint %s (seq %d)\n", n.spec.Name, path, seq())
	}
	if n.spec.Cluster || n.opts.Journal == "" {
		return loaded, nil
	}
	f, err := os.Open(n.opts.Journal)
	if err != nil {
		return loaded, fmt.Errorf("journal tail: %v", err)
	}
	defer f.Close()
	replayed, err := ipd.ReplayJournalTail(bufio.NewReader(f), seq(), apply)
	if err != nil {
		return loaded, fmt.Errorf("journal tail replay: %v", err)
	}
	n.Checkpoints.NoteReplayed(replayed)
	if replayed > 0 {
		fmt.Fprintf(os.Stderr, "%s: replayed %d journal events (now at seq %d)\n", n.spec.Name, replayed, seq())
	}
	return loaded, nil
}

// CheckpointDue reports whether a node with a bare Engine should write a
// checkpoint now: checkpointing is on and -checkpoint-every stage-2 cycles
// have run since the last due checkpoint. The gate is one atomic load.
func (n *Node) CheckpointDue() bool {
	if n.Checkpoints == nil {
		return false
	}
	cycles := n.Engine.Cycles()
	if cycles-n.lastCkpt < n.opts.CheckpointEvery {
		return false
	}
	n.lastCkpt = cycles
	return true
}

// Save writes a checkpoint of a bare Engine: its state alone, or on a
// cluster core the envelope with the per-edge applied offsets. The encode
// runs under the node lock, the write outside it. Failures are counted by
// the manager (ipd_checkpoint_errors_total) and the previous checkpoint
// stays valid.
func (n *Node) Save(applied map[string]uint64) error {
	n.Lock()
	data, seq := n.Engine.MarshalState(), n.Engine.Seq()
	n.Unlock()
	if n.spec.Cluster {
		var err error
		if data, err = ipd.EncodeClusterCheckpoint(data, applied); err != nil {
			return err
		}
	}
	return n.Checkpoints.Save(seq, data)
}

// Close releases the journal file.
func (n *Node) Close() error {
	if n.journalFile == nil {
		return nil
	}
	return n.journalFile.Close()
}

// source is what the debug surface and the sketch status read: a Server
// (which locks internally) or a bare Engine behind the node lock.
type source interface {
	ipd.IntrospectSource
	SketchStatus() ipd.SketchStatus
}

// lockedEngine adapts the single-threaded Engine to the concurrent
// introspect.Source contract: each read holds the node lock.
type lockedEngine struct{ *Node }

// lock takes the node lock and returns its release, for one-line deferral.
func (n *Node) lock() func() { n.Lock(); return n.Unlock }

func (l lockedEngine) Snapshot() []ipd.RangeInfo {
	defer l.lock()()
	return l.Engine.Snapshot()
}

func (l lockedEngine) Range(a netip.Addr) (ipd.RangeInfo, bool) {
	defer l.lock()()
	return l.Engine.Range(a)
}

func (l lockedEngine) Explain(a netip.Addr) (ipd.Explanation, bool) {
	defer l.lock()()
	return l.Engine.Explain(a)
}

func (l lockedEngine) SketchStatus() ipd.SketchStatus {
	defer l.lock()()
	return l.Engine.SketchStatus()
}
