package node

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// defaults returns the shared options as Register fills them in; the role
// fields stay off.
func defaults() Options {
	var o Options
	o.Register(flag.NewFlagSet("test", flag.ContinueOnError))
	return o
}

// validateCase perturbs the defaults and names the flag the error must
// mention ("" = must pass).
type validateCase struct {
	name string
	set  func(o *Options)
	want string
}

func runValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, tc := range cases {
		o := defaults()
		tc.set(&o)
		err := o.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: bad value accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestEngineAcceptsDefaults(t *testing.T) {
	runValidate(t, []validateCase{
		{"defaults", func(o *Options) {}, ""},
		// The documented non-default shapes are fine too.
		{"non-defaults", func(o *Options) {
			o.CheckpointEvery, o.TraceSample, o.MaxRanges, o.MemBudget = 1, 1, 2, 1<<30
			o.TimelineWindow, o.TimelineEvery, o.MutexProfile = 0, 5, 100
		}, ""},
	})
}

func TestEngineRejections(t *testing.T) {
	runValidate(t, []validateCase{
		{"ckpt-every", func(o *Options) { o.CheckpointEvery = 0 }, "-checkpoint-every"},
		{"trace-sample", func(o *Options) { o.TraceSample = 0 }, "-trace-sample"},
		{"max-ranges-neg", func(o *Options) { o.MaxRanges = -1 }, "-max-ranges"},
		{"max-ranges-one", func(o *Options) { o.MaxRanges = 1 }, "/0 roots"},
		{"mem-budget", func(o *Options) { o.MemBudget = -1 }, "-mem-budget"},
		{"timeline-window", func(o *Options) { o.TimelineWindow = -1 }, "-timeline-window"},
		{"timeline-every", func(o *Options) { o.TimelineEvery = 0 }, "-timeline-every"},
		{"mutexprofile", func(o *Options) { o.MutexProfile = -1 }, "-mutexprofile"},
		{"log-level", func(o *Options) { o.LogLevel = "loud" }, "-log-level"},
	})
}

func TestFirstErrorWins(t *testing.T) {
	// Everything is wrong: the first check in declaration order must win, so
	// the user fixes flags in a stable sequence.
	runValidate(t, []validateCase{{"all-bad", func(o *Options) {
		o.CheckpointEvery, o.TraceSample, o.MaxRanges, o.MemBudget = 0, 0, 1, -1
		o.TimelineWindow, o.TimelineEvery, o.MutexProfile = -1, 0, -1
		o.ExporterStaleAfter, o.WorkloadTopK, o.LogLevel = 0, 0, "loud"
	}, "-checkpoint-every"}})
}

func TestExporterHealth(t *testing.T) {
	runValidate(t, []validateCase{
		{"defaults", func(o *Options) { o.ExporterStaleAfter, o.SkewMax = 3*time.Minute, 5*time.Minute }, ""},
		{"zero stale-after", func(o *Options) { o.ExporterStaleAfter, o.SkewMax = 0, time.Minute }, "-exporter-stale-after"},
		{"negative skew-max", func(o *Options) { o.ExporterStaleAfter, o.SkewMax = time.Minute, -time.Second }, "-skew-max"},
	})
}

func TestWorkload(t *testing.T) {
	runValidate(t, []validateCase{
		{"defaults", func(o *Options) { o.WorkloadTopK, o.WorkloadMaxDepth = 32, 10 }, ""},
		{"topk 1", func(o *Options) { o.WorkloadTopK = 1 }, "-workload-topk"},
		{"depth 1", func(o *Options) { o.WorkloadMaxDepth = 1 }, "-workload-maxdepth"},
		{"depth 11", func(o *Options) { o.WorkloadMaxDepth = 11 }, "-workload-maxdepth"},
	})
}

func TestIngest(t *testing.T) {
	ingest := func(queue, sample, boost int) func(o *Options) {
		return func(o *Options) { o.Ingest = &Ingest{Queue: queue, Sample: sample, SampleBoost: boost} }
	}
	runValidate(t, []validateCase{
		// ipd has no ingest queue: nil skips the checks.
		{"no ingest", func(o *Options) { o.Ingest = nil }, ""},
		{"defaults", ingest(1<<14, 1, 8), ""},
		{"queue 0", ingest(0, 1, 8), "-queue"},
		{"sample 0", ingest(1, 0, 8), "-sample"},
		{"boost 0", ingest(1, 1, 0), "-sample-boost"},
	})
}

func TestDeltaShip(t *testing.T) {
	ship := func(target, edge string, spool int, hb time.Duration) func(o *Options) {
		return func(o *Options) { o.ShipTo, o.EdgeID, o.SpoolCap, o.Heartbeat = target, edge, spool, hb }
	}
	runValidate(t, []validateCase{
		// Disabled shipping skips every check, including nonsense values.
		{"disabled", ship("", "", 0, 0), ""},
		{"valid", ship("core:4810", "edge-1", 1<<16, 2*time.Second), ""},
		{"missing edge id", ship("core:4810", "", 1<<16, time.Second), "-edge-id"},
		{"zero spool", ship("core:4810", "edge-1", 0, time.Second), "-spool-cap"},
		{"zero heartbeat", ship("core:4810", "edge-1", 1, 0), "-heartbeat"},
	})
}

func TestSketch(t *testing.T) {
	sketch := func(on bool, width, depth int, margin float64) func(o *Options) {
		return func(o *Options) {
			o.Sketch, o.SketchWidth, o.SketchDepth, o.SketchExactMargin = on, width, depth, margin
		}
	}
	cases := []validateCase{
		// Disabled sketching skips every check, including nonsense sizing.
		{"disabled", sketch(false, 0, 0, -1), ""},
		{"valid", sketch(true, 1024, 4, 0.05), ""},
		{"zero margin (use the engine default)", sketch(true, 1024, 4, 0), ""},
	}
	for _, width := range []int{15, 1<<20 + 1} {
		cases = append(cases, validateCase{"width", sketch(true, width, 4, 0.05), "-sketch-width"})
	}
	for _, depth := range []int{0, 17} {
		cases = append(cases, validateCase{"depth", sketch(true, 1024, depth, 0.05), "-sketch-depth"})
	}
	for _, margin := range []float64{-0.1, 1, 1.5} {
		cases = append(cases, validateCase{"margin", sketch(true, 1024, 4, margin), "-sketch-exact-margin"})
	}
	runValidate(t, cases)
}

func TestDeltaListen(t *testing.T) {
	listen := func(addr string, stall, hb time.Duration) func(o *Options) {
		return func(o *Options) { o.ListenDelta, o.MergeStall, o.Heartbeat = addr, stall, hb }
	}
	runValidate(t, []validateCase{
		{"disabled", listen("", -1, 0), ""},
		{"valid", listen(":4810", 0, 2*time.Second), ""},
		{"negative merge-stall", listen(":4810", -time.Second, time.Second), "-merge-stall"},
		{"zero heartbeat", listen(":4810", time.Minute, 0), "-heartbeat"},
	})
}
