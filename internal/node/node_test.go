package node

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipd"
)

// stream returns a seeded record stream covering the given virtual minutes
// after start (scenario start when zero).
func stream(t *testing.T, from, minutes int) []ipd.Record {
	t.Helper()
	scn, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipd.DefaultSimGenConfig()
	cfg.FlowsPerMinute = 2000
	start := scn.Start.Add(time.Duration(from) * time.Minute)
	recs, err := scn.Records(start, start.Add(time.Duration(minutes)*time.Minute), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func build(t *testing.T, o Options, spec Spec) *Node {
	t.Helper()
	spec.Name = "node-test"
	spec.Config = ipd.DefaultConfig()
	n, err := Build(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func feed(n *Node, recs []ipd.Record) {
	for _, rec := range recs {
		n.Lock()
		n.Engine.Feed(rec)
		n.Unlock()
	}
}

// durable returns options that checkpoint into and journal under dir.
func durable(dir string) Options {
	o := defaults()
	o.CheckpointDir = filepath.Join(dir, "ckpt")
	o.Journal = filepath.Join(dir, "journal.jsonl")
	return o
}

// replayFile replays the journal file as it is on disk now.
func replayFile(t *testing.T, path string) (*ipd.Replayer, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ipd.ReplayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("journal does not replay: %v", err)
	}
	return rp, data
}

func TestColdStart(t *testing.T) {
	o := durable(t.TempDir())
	n := build(t, o, Spec{})
	if n.Engine == nil || n.Server != nil || n.Applied != nil {
		t.Fatalf("cold trace node: engine %v, server %v, applied %v", n.Engine, n.Server, n.Applied)
	}
	// A cold start journals the two root `created` events.
	if got := n.Journal.Recorded(); got != 2 || n.Engine.Seq() != 2 {
		t.Fatalf("cold start journaled %d events at seq %d, want the 2 roots", got, n.Engine.Seq())
	}
	feed(n, stream(t, 0, 10))
	if n.Engine.Seq() <= 2 {
		t.Fatal("no decisions after 10 minutes")
	}
	// Without Close (a killed process) the file holds exactly the emitted
	// events, each a complete line.
	rp, data := replayFile(t, o.Journal)
	if lines := bytes.Count(data, []byte("\n")); uint64(lines) != n.Engine.Seq() || data[len(data)-1] != '\n' {
		t.Fatalf("journal holds %d lines (last byte %q), engine at seq %d", lines, data[len(data)-1], n.Engine.Seq())
	}
	if rp.Seq() != n.Engine.Seq() {
		t.Fatalf("replayed to seq %d, engine at %d", rp.Seq(), n.Engine.Seq())
	}
}

func TestWarmStartAppliesJournalTail(t *testing.T) {
	// Without a checkpoint (a run that died before its first one) the whole
	// journal past the two roots is the tail.
	for _, checkpoint := range []bool{true, false} {
		o := durable(t.TempDir())
		a := build(t, o, Spec{})
		feed(a, stream(t, 0, 10))
		restoredSeq := uint64(2)
		if checkpoint {
			if err := a.Save(nil); err != nil {
				t.Fatal(err)
			}
			restoredSeq = a.Engine.Seq()
		}
		feed(a, stream(t, 10, 5))
		if a.Engine.Seq() == restoredSeq {
			t.Fatalf("checkpoint %v: the journal tail is empty", checkpoint)
		}

		// a is abandoned without Close, as a killed process would be.
		b := build(t, o, Spec{})
		if b.Engine.Seq() != a.Engine.Seq() {
			t.Fatalf("checkpoint %v: restored to seq %d, want %d", checkpoint, b.Engine.Seq(), a.Engine.Seq())
		}
		if !ipd.RangeViewsEqual(ipd.ProjectRanges(b.Engine.Snapshot()), ipd.ProjectRanges(a.Engine.Snapshot())) {
			t.Fatalf("checkpoint %v: restored partition differs from the crashed node's", checkpoint)
		}
		// The constructor's root events are not journaled again, so the
		// appended journal still replays.
		if got := b.Journal.Recorded(); got != 0 {
			t.Fatalf("checkpoint %v: restart journaled %d construction events", checkpoint, got)
		}
		feed(b, stream(t, 15, 5))
		if rp, _ := replayFile(t, o.Journal); rp.Seq() != b.Engine.Seq() {
			t.Fatalf("checkpoint %v: journal replays to seq %d, engine at %d", checkpoint, rp.Seq(), b.Engine.Seq())
		}
	}
}

func TestClusterRestoreReturnsOffsets(t *testing.T) {
	o := defaults()
	o.CheckpointDir = t.TempDir()
	a := build(t, o, Spec{Cluster: true})
	if a.Applied != nil {
		t.Fatalf("cold cluster start returned offsets %v", a.Applied)
	}
	feed(a, stream(t, 0, 5))
	want := map[string]uint64{"edge-a": 1200, "edge-b": 950}
	if err := a.Save(want); err != nil {
		t.Fatal(err)
	}
	b := build(t, o, Spec{Cluster: true})
	if !maps.Equal(b.Applied, want) || b.Engine.Seq() != a.Engine.Seq() {
		t.Fatalf("restored offsets %v at seq %d, want %v at seq %d", b.Applied, b.Engine.Seq(), want, a.Engine.Seq())
	}
}

func TestGovernorQueueAxis(t *testing.T) {
	o := defaults()
	if n := build(t, o, Spec{}); n.Governor != nil {
		t.Fatal("governor built without -governor or a budget")
	}
	o.MaxRanges = 1000
	trace := build(t, o, Spec{})
	if cfg := trace.Governor.Config(); cfg.QueueCap != 0 || cfg.QueueDepth != nil {
		t.Fatalf("trace node governor watches a queue: cap %d", cfg.QueueCap)
	}
	o.Ingest = &Ingest{Queue: 64, Sample: 1, SampleBoost: 8}
	coll := build(t, o, Spec{Queue: ipd.NewIngestQueue(64)})
	if coll.Server == nil || coll.Engine != nil {
		t.Fatal("queue given but no server built")
	}
	if cfg := coll.Governor.Config(); cfg.QueueCap != 64 || cfg.QueueDepth == nil {
		t.Fatalf("collector governor queue axis: cap %d, depth func %v", cfg.QueueCap, cfg.QueueDepth != nil)
	}
}

func TestHealthProbesOnlyWithTracing(t *testing.T) {
	status := func(n *Node, path string) int {
		rec := httptest.NewRecorder()
		n.Mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, tracing := range []bool{false, true} {
		n := build(t, defaults(), Spec{Tracing: tracing})
		if (n.Tracer != nil) != tracing || (n.Watchdog != nil) != tracing {
			t.Fatalf("tracing %v: tracer %v, watchdog %v", tracing, n.Tracer != nil, n.Watchdog != nil)
		}
		for _, path := range []string{"/metrics", "/debug/vars", "/ipd/ranges"} {
			if code := status(n, path); code != http.StatusOK {
				t.Errorf("tracing %v: %s = %d", tracing, path, code)
			}
		}
		for _, path := range []string{"/healthz", "/readyz"} {
			if mounted := status(n, path) != http.StatusNotFound; mounted != tracing {
				t.Errorf("tracing %v: %s mounted = %v", tracing, path, mounted)
			}
		}
	}
}
