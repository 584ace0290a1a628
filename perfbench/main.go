// Command perfbench is the repository's benchmark: it builds the IPD system
// in-process through the public ipd facade (plus internal/netflow's
// collector, where the facade stops), restores a converged partition, drives
// one workload for a fixed time, checks the outputs, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//	steady      closed loop: the cmd/ipd trace loop over a converged partition
//	scan-flood  closed loop: the same loop, governed, under a spoofed /32 flood
//	collector   open loop: NetFlow v5 over loopback UDP from a generator process
//	            into netflow.Collector, IngestQueue and Server.RunQueue, with
//	            a reader calling Server.Range and Server.Mapped beside it
//	cluster     open loop: two DeltaSender edges over loopback TCP into a
//	            DeltaReceiver core that checkpoints every 10 cycles
//
// scan-flood is not listed in BENCHMARK.json while its journal-tail gate
// fails: Engine.ApplyEvent's EventJoined replay builds a fresh range without
// the sketch provenance the live join ORs over its children, so on most
// seeds a warm checkpoint plus the journal tail gives a partition that
// RangeViewsEqual rejects. The workload still runs by name and still fails
// that gate; list it again once ApplyEvent carries the flag.
//
// Every workload runs passes: each pass builds the node, restores the warm
// checkpoint and replays the same window of input, until --seconds of
// windows have been measured. The first pass also captures the journal and
// runs the correctness gates outside its window; later passes must
// reproduce its partition. A failed gate is printed and the run measures
// on, then reports correct=false; an error that leaves nothing to measure
// ends the run with exit code 1 and no result.
//
// The end-to-end metrics are records_per_s, cpu_ns_per_record (process
// CPU), cycle_cpu_ms_p50/p90 (thread CPU time of the calls that ran a
// stage-2 cycle), heap_live_mb and setup_s. Rates and stalls are read from
// thread CPU time where the ingest thread is the bottleneck, because host
// CPU steal on a shared machine swings wall time by a third between runs;
// the wall-time figures are printed beside them.
//
// --trace 1 adds a traced run of the same length after the untraced one: it
// times every call the harness makes into a layer, attaches the engine's
// ipd.Tracer, writes both span sets as Chrome traces under
// .bench_build/perfbench/, and prints the per-layer metrics and the tracing
// overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON line the run ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string // Chrome traces and checkpoint scratch
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(runConfig) (*report, error){
	"steady":     func(rc runConfig) (*report, error) { return runClosed(rc, false) },
	"scan-flood": func(rc runConfig) (*report, error) { return runClosed(rc, true) },
	"collector":  runCollector,
	"cluster":    runCluster,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "generator" {
		if err := generatorMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench generator:", err)
			os.Exit(1)
		}
		return
	}
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload: steady, scan-flood, collector or cluster")
	flag.Int64Var(&rc.seed, "seed", 1, "input seed (the same seed gives the same input)")
	flag.IntVar(&rc.seconds, "seconds", 10, "measured window length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	rc.trace = trace == 1
	drive, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload steady|scan-flood|collector|cluster, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	rc.outDir = filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	provenance(rc)
	t0 := time.Now()
	rep, err := drive(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# run took %.1fs\n", since(t0))
	if err := rep.print(rc.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is what a workload driver hands back.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
}

// endToEnd and perLayer name every reported metric with its unit; the
// names and units match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"records_per_s", "records/s"},
	{"cpu_ns_per_record", "ns"},
	{"cycle_cpu_ms_p50", "ms"},
	{"cycle_cpu_ms_p90", "ms"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"flow.read_ns", "ns"},
	{"netflow.handle_ns", "ns"},
	{"netflow.datagrams", "count"},
	{"udp.dropped", "count"},
	{"queue.offer_ns", "ns"},
	{"queue.shed", "count"},
	{"queue.depth_max", "count"},
	{"query_ms_p50", "ms"},
	{"query_ms_p99", "ms"},
	{"server.lock_wait_ms", "ms"},
	{"server.lock_acquisitions", "count"},
	{"stattime.bin_ns", "ns"},
	{"stattime.dropped_stale", "count"},
	{"stattime.dropped_future", "count"},
	{"core.observe_ns", "ns"},
	{"core.ranges_mean", "count"},
	{"core.trie_nodes_mean", "count"},
	{"core.ip_states_mean", "count"},
	{"core.ip_states_peak", "count"},
	{"core.ip_states_skipped", "count"},
	{"core.cycle.snapshot_ms", "ms"},
	{"core.cycle.decay_ms", "ms"},
	{"core.cycle.classify_ms", "ms"},
	{"core.cycle.split_ms", "ms"},
	{"core.cycle.join_ms", "ms"},
	{"core.cycle.drop_ms", "ms"},
	{"core.cycle.govern_ms", "ms"},
	{"core.splits", "count"},
	{"core.joins", "count"},
	{"core.events", "count"},
	{"journal.record_ns", "ns"},
	{"timeline.on_cycle_us", "us"},
	{"timeline.observe_event_ns", "ns"},
	{"exphealth.observe_ns", "ns"},
	{"workload.observe_ns", "ns"},
	{"export.snapshot_ms", "ms"},
	{"governor.transitions", "count"},
	{"governor.degraded_cycles", "count"},
	{"sketch.observes", "count"},
	{"sketch.degrades", "count"},
	{"sketch.hydrates", "count"},
	{"sketch.ranges_peak", "count"},
	{"persist.decode_ms", "ms"},
	{"persist.encode_ms", "ms"},
	{"persist.save_ms", "ms"},
	{"persist.checkpoint_bytes", "bytes"},
	{"delta.apply_ms", "ms"},
	{"delta.records_per_batch", "count"},
	{"delta.spool_depth_max", "count"},
	{"delta.shed", "count"},
	{"delta.retransmitted", "count"},
	{"delta.ship_ms_p50", "ms"},
	{"delta.ship_ms_p99", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc_bytes_per_record", "bytes"},
	{"allocs_per_record", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_frac", "frac"},
}

// print writes the human-readable metric table and then the JSON line.
func (r *report) print(traced bool) error {
	out := outcome{Correct: len(gateFailures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names, values := endToEnd, r.e2e
	if traced {
		names, values = perLayer, r.layers
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Printf("# %-28s %16.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	fmt.Printf("# records attempted %d, failed %d; correctness gates failed %d\n", r.attempted, r.failed, len(gateFailures))
	for _, f := range gateFailures {
		fmt.Printf("#   %s\n", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// provenance prints what a reader needs to place the numbers: machine,
// toolchain and source tree.
func provenance(rc runConfig) {
	rev, dirty := "unknown (not built from a git checkout)", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Printf("# workload %s, seed %d, seconds %d, trace %v\n", rc.workload, rc.seed, rc.seconds, rc.trace)
	fmt.Printf("# cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# commit %s, dirty %s\n", rev, dirty)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// gateFailures are the correctness gates the run failed, in order.
var gateFailures []string

// check records err and returns nil when it is a failed gate, so that the
// run measures on and reports correct=false; any other error it returns.
// Only the goroutine running the workload driver calls it.
func check(err error) error {
	if err == nil || !errors.Is(err, errGate) {
		return err
	}
	gateFailures = append(gateFailures, err.Error())
	fmt.Printf("# GATE FAILED: %v\n", err)
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return nil
}

// runStart is when the process started, for the progress lines.
var runStart = time.Now()

// since is time.Since as seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
