package node

import (
	"flag"
	"fmt"
	"log/slog"
	"time"
)

// Options is the tuning surface of one IPD node. The shared half holds the
// flags both binaries define, registered once by Register; the role fields
// at the end belong to one binary each, which registers them itself and
// leaves the other binary's fields at their zero values.
type Options struct {
	Factor4 float64 // -factor4: IPv4 n_cidr factor
	Floor   float64 // -floor: n_cidr floor
	Q       float64 // -q: quality threshold

	LogLevel     string // -log-level
	MutexProfile int    // -mutexprofile

	Journal    string // -journal: JSONL sink path ("" = in-memory only)
	JournalCap int    // -journal-cap

	TraceCap    int // -trace-cap
	TraceSample int // -trace-sample

	CheckpointDir   string // -checkpoint-dir ("" disables)
	CheckpointEvery uint64 // -checkpoint-every

	Governor  bool  // -governor
	MaxRanges int   // -max-ranges (implies Governor)
	MemBudget int64 // -mem-budget (implies Governor)

	TimelineWindow int // -timeline-window (0 disables the timeline)
	TimelineEvery  int // -timeline-every

	ExporterStaleAfter time.Duration // -exporter-stale-after
	SkewMax            time.Duration // -skew-max

	WorkloadTopK     int // -workload-topk
	WorkloadMaxDepth int // -workload-maxdepth

	Sketch            bool    // -sketch
	SketchWidth       int     // -sketch-width
	SketchDepth       int     // -sketch-depth
	SketchExactMargin float64 // -sketch-exact-margin

	Heartbeat time.Duration // -heartbeat: delta transport keepalive

	// ipd cluster core: -listen-delta ("" = trace mode) and -merge-stall.
	ListenDelta string
	MergeStall  time.Duration

	// ipd-collector edge: -ship-to ("" = no shipping), -edge-id, -spool-cap.
	ShipTo   string
	EdgeID   string
	SpoolCap int

	// Ingest holds the collector's ingest-pipeline flags; nil on ipd, which
	// has no ingest queue.
	Ingest *Ingest
}

// Ingest is the collector's ingest pipeline: -queue, -sample, -sample-boost.
type Ingest struct {
	Queue       int
	Sample      int
	SampleBoost int
}

// Register defines the shared flags on fs, with their defaults written
// into o.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.Float64Var(&o.Factor4, "factor4", 0.01, "IPv4 n_cidr factor (64 at deployment traffic rates)")
	fs.Float64Var(&o.Floor, "floor", 4, "n_cidr floor (min samples to classify any range)")
	fs.Float64Var(&o.Q, "q", 0.95, "quality threshold")
	fs.StringVar(&o.LogLevel, "log-level", "warn", "structured log level: debug, info, warn, error (info and below log one line per stage-2 cycle)")
	fs.IntVar(&o.MutexProfile, "mutexprofile", 0, "runtime mutex/block profiling fraction for /debug/pprof/{mutex,block} (0 disables)")
	fs.StringVar(&o.Journal, "journal", "", "append every lifecycle decision as JSON lines to this file ('' disables the sink; the in-memory journal always runs)")
	fs.IntVar(&o.JournalCap, "journal-cap", 4096, "in-memory decision journal ring capacity")
	fs.IntVar(&o.TraceCap, "trace-cap", 8192, "span flight-recorder ring capacity, tailed at /ipd/traces (ipd traces only with -trace-out or -debug-http)")
	fs.IntVar(&o.TraceSample, "trace-sample", 1024, "sample 1-in-N per-record spans (read or bin, observe); stage-2 cycle phases are always traced")
	fs.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "write periodic CRC-guarded state checkpoints to this directory and restore the newest valid one on startup ('' disables)")
	fs.Uint64Var(&o.CheckpointEvery, "checkpoint-every", 10, "checkpoint every N stage-2 cycles (with -checkpoint-dir)")
	fs.BoolVar(&o.Governor, "governor", false, "enable the resource governor (normal/degraded/emergency degradation; implied by -max-ranges or -mem-budget)")
	fs.IntVar(&o.MaxRanges, "max-ranges", 0, "hard cap on active ranges; splits beyond it are deferred (0 = unlimited, implies -governor)")
	fs.Int64Var(&o.MemBudget, "mem-budget", 0, "live-heap budget in bytes for the governor (0 = unlimited, implies -governor)")
	fs.IntVar(&o.TimelineWindow, "timeline-window", 512, "per-series timeline ring window in cycles; older points are downsampled into coarser tiers (0 disables the timeline)")
	fs.IntVar(&o.TimelineEvery, "timeline-every", 1, "sample the timeline every N stage-2 cycles")
	fs.DurationVar(&o.ExporterStaleAfter, "exporter-stale-after", 3*time.Minute, "flag a router's feed stale (AlertExporterStale) once it has been silent this long (statistical time)")
	fs.DurationVar(&o.SkewMax, "skew-max", 5*time.Minute, "export-clock skew limit for the exporter-health coverage score and AlertClockSkew (UDP collectors only; trace files carry no export clock)")
	fs.IntVar(&o.WorkloadTopK, "workload-topk", 32, "workload profiler heavy-hitter capacity (top-K /24 or /48 aggregates)")
	fs.IntVar(&o.WorkloadMaxDepth, "workload-maxdepth", 10, "deepest candidate shard depth simulated by the workload profiler (2..10)")
	fs.BoolVar(&o.Sketch, "sketch", false, "enable the fixed-memory sketch tier: under governor pressure, unclassified ranges far from the classification threshold degrade per-IP state to a count-min sketch and hydrate back when calm")
	fs.IntVar(&o.SketchWidth, "sketch-width", 1024, "count-min sketch width in counters per row (16..1048576; error bound ε = e/width of window mass)")
	fs.IntVar(&o.SketchDepth, "sketch-depth", 4, "count-min sketch depth in rows (1..16; bound failure probability δ = e^-depth)")
	fs.Float64Var(&o.SketchExactMargin, "sketch-exact-margin", 0.05, "keep exact per-IP state while a range's top share is within this margin below q (0 uses the engine default)")
	fs.DurationVar(&o.Heartbeat, "heartbeat", 2*time.Second, "delta transport keepalive interval; peers declare a connection dead after 4x this")
}

// governed reports whether a governor should be built (explicitly enabled
// or implied by a budget flag).
func (o *Options) governed() bool { return o.Governor || o.MaxRanges > 0 || o.MemBudget > 0 }

// Validate checks every flag value, rejecting values that earlier versions
// silently "fixed" (a checkpoint cadence of 0 became 1, a non-positive trace
// sample rate traced nothing): a typo like -checkpoint-every 0 fails loudly
// instead of checkpointing on every cycle. The first violated rule wins,
// in a stable order, so the user fixes flags one at a time.
func (o *Options) Validate() error {
	var err error
	check := func(ok bool, format string, args ...any) {
		if !ok && err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	check(o.CheckpointEvery >= 1, "-checkpoint-every must be >= 1 (got %d)", o.CheckpointEvery)
	check(o.TraceSample >= 1, "-trace-sample must be >= 1 (got %d)", o.TraceSample)
	check(o.MaxRanges >= 0, "-max-ranges must be >= 0 (got %d)", o.MaxRanges)
	// The partition always holds the v4 and v6 /0 roots.
	check(o.MaxRanges != 1, "-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)")
	check(o.MemBudget >= 0, "-mem-budget must be >= 0 (got %d)", o.MemBudget)
	check(o.TimelineWindow >= 0, "-timeline-window must be >= 0 (got %d)", o.TimelineWindow)
	check(o.TimelineEvery >= 1, "-timeline-every must be >= 1 (got %d)", o.TimelineEvery)
	check(o.MutexProfile >= 0, "-mutexprofile must be >= 0 (got %d)", o.MutexProfile)
	// A non-positive threshold would disable the staleness and skew alerts
	// silently.
	check(o.ExporterStaleAfter > 0, "-exporter-stale-after must be positive (got %v)", o.ExporterStaleAfter)
	check(o.SkewMax > 0, "-skew-max must be positive (got %v)", o.SkewMax)
	check(o.WorkloadTopK >= 2, "-workload-topk must be >= 2 (got %d)", o.WorkloadTopK)
	check(o.WorkloadMaxDepth >= 2 && o.WorkloadMaxDepth <= 10, "-workload-maxdepth must be in 2..10 (got %d)", o.WorkloadMaxDepth)
	if in := o.Ingest; in != nil {
		// A zero value for any of them is a dead pipeline, not a degraded one.
		check(in.Queue >= 1, "-queue must be >= 1 (got %d)", in.Queue)
		check(in.Sample >= 1, "-sample must be >= 1 (got %d)", in.Sample)
		check(in.SampleBoost >= 1, "-sample-boost must be >= 1 (got %d)", in.SampleBoost)
	}
	if o.ListenDelta != "" {
		// An empty -edges list is allowed: it selects dynamic registration.
		check(o.MergeStall >= 0, "-merge-stall must be >= 0 (got %v)", o.MergeStall)
		check(o.Heartbeat > 0, "-heartbeat must be positive (got %v)", o.Heartbeat)
	}
	if o.ShipTo != "" {
		check(o.EdgeID != "", "-ship-to needs -edge-id (the core dedupes and resumes per edge identity)")
		check(o.SpoolCap >= 1, "-spool-cap must be >= 1 (got %d)", o.SpoolCap)
		check(o.Heartbeat > 0, "-heartbeat must be positive (got %v)", o.Heartbeat)
	}
	if o.Sketch {
		// With -sketch off the sizing flags are ignored entirely, so scripted
		// invocations can leave them at defaults. The engine additionally
		// requires the margin below q.
		check(o.SketchWidth >= 16 && o.SketchWidth <= 1<<20, "-sketch-width must be in 16..1048576 (got %d)", o.SketchWidth)
		check(o.SketchDepth >= 1 && o.SketchDepth <= 16, "-sketch-depth must be in 1..16 (got %d)", o.SketchDepth)
		check(o.SketchExactMargin >= 0 && o.SketchExactMargin < 1, "-sketch-exact-margin must be in [0, 1) (got %g)", o.SketchExactMargin)
	}
	_, lerr := o.logLevel()
	check(lerr == nil, "%v", lerr)
	return err
}

// logLevel parses -log-level.
func (o *Options) logLevel() (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(o.LogLevel)); err != nil {
		return lvl, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", o.LogLevel)
	}
	return lvl, nil
}
