package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipd"
)

// TestREADMECommandsParse parses every `go run ./cmd/ipd` command in
// README.md (continuations joined; redirections, background markers, pipes
// and comments cut off) with the binary's own flag set.
func TestREADMECommandsParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		_, args, ok := strings.Cut(line, "go run ./cmd/ipd ")
		if !ok {
			continue
		}
		if i := strings.IndexAny(args, "#>&|`"); i >= 0 {
			args = args[:i]
		}
		found++
		fs, _ := newFlags()
		fs.Init("ipd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() != 0 {
			t.Errorf("ipd %s: %v (stray args %q)", args, err, fs.Args())
		}
	}
	if found == 0 {
		t.Fatal("README has no ipd command")
	}
}

// binary builds this command into a temp dir and writes a seeded trace
// next to it.
func binary(t *testing.T, minutes int) (bin, trace string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/ipd")
	}
	dir := t.TempDir()
	bin = filepath.Join(dir, "ipd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	scn, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipd.DefaultSimGenConfig()
	cfg.FlowsPerMinute = 2000
	var buf bytes.Buffer
	w := ipd.NewTraceWriter(&buf)
	err = scn.Stream(scn.Start, scn.Start.Add(time.Duration(minutes)*time.Minute), cfg, func(rec ipd.Record) bool {
		return w.Write(rec) == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trace = filepath.Join(dir, "trace.ipd")
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return bin, trace
}

func runOK(t *testing.T, bin string, args ...string) {
	t.Helper()
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("ipd %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// A warm restart appends to the journal; the result must still replay
// (the restarted engine's construction events must not be appended again).
func TestWarmRestartJournalReplays(t *testing.T) {
	bin, trace := binary(t, 20)
	dir := filepath.Dir(trace)
	journal := filepath.Join(dir, "j.jsonl")
	args := []string{"-in", trace, "-summary", "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-journal", journal}
	runOK(t, bin, args...)
	runOK(t, bin, args...)
	runOK(t, bin, "-replay", journal)
}

// A run killed mid-trace leaves a journal of whole lines, so the restart
// replays its tail and starts.
func TestKilledRunRestarts(t *testing.T) {
	bin, trace := binary(t, 20)
	dir := filepath.Dir(trace)
	journal := filepath.Join(dir, "j.jsonl")
	ckpt := filepath.Join(dir, "ckpt")
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	// Feed half the trace through a pipe that stays open, so the process is
	// mid-run when it is killed.
	cmd := exec.Command(bin, "-in", "-", "-summary", "-checkpoint-dir", ckpt, "-checkpoint-every", "1", "-journal", journal)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	if _, err := stdin.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ckpts, _ := filepath.Glob(filepath.Join(ckpt, "checkpoint-*"))
		if st, err := os.Stat(journal); err == nil && st.Size() > 0 && len(ckpts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint and journal output before the deadline")
		}
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	stdin.Close()

	runOK(t, bin, "-in", trace, "-summary", "-checkpoint-dir", ckpt, "-journal", journal)
	runOK(t, bin, "-replay", journal)
}
