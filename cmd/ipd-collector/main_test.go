package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ipd"
	"ipd/internal/netflow"
)

// TestREADMECommandsParse parses every `go run ./cmd/ipd-collector` command
// in README.md (continuations joined; redirections, background markers,
// pipes and comments cut off) with the binary's own flag set.
func TestREADMECommandsParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		_, args, ok := strings.Cut(line, "go run ./cmd/ipd-collector ")
		if !ok {
			continue
		}
		if i := strings.IndexAny(args, "#>&|`"); i >= 0 {
			args = args[:i]
		}
		found++
		fs, _ := newFlags()
		fs.Init("ipd-collector", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() != 0 {
			t.Errorf("ipd-collector %s: %v (stray args %q)", args, err, fs.Args())
		}
	}
	if found == 0 {
		t.Fatal("README has no ipd-collector command")
	}
}

// SIGTERM drains the queue, runs the final cycle and writes the final
// checkpoint before the process exits, so the newest checkpoint covers
// every journaled event.
func TestShutdownWritesFinalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/ipd-collector")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ipd-collector")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	journal, ckpt := filepath.Join(dir, "j.jsonl"), filepath.Join(dir, "ckpt")
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-http", "", "-trust", "-factor4", "0.001",
		"-checkpoint-dir", ckpt, "-journal", journal)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	var addr string
	sc := bufio.NewScanner(stderr)
	for addr == "" && sc.Scan() {
		_, addr, _ = strings.Cut(sc.Text(), "NetFlow v5 on udp://")
	}
	go func() { _, _ = io.Copy(io.Discard, stderr) }()
	if addr == "" {
		t.Fatal("collector did not report its NetFlow address")
	}

	exp, err := netflow.NewExporter(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	scn, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipd.DefaultSimGenConfig()
	cfg.FlowsPerMinute = 600
	recs, err := scn.Records(scn.Start, scn.Start.Add(6*time.Minute), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NetFlow v5 carries IPv4 only. The stream is shifted to end now: the
	// statistical-time binner drops records that lag its clock.
	base := time.Now().Add(-6 * time.Minute)
	for _, rec := range recs {
		if !rec.Src.Is4() {
			continue
		}
		rec.Ts = base.Add(rec.Ts.Sub(scn.Start))
		if err := exp.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Shut down only once stage 2 has decided past the two root events.
	lines := func() int {
		data, _ := os.ReadFile(journal)
		return bytes.Count(data, []byte("\n"))
	}
	for deadline := time.Now().Add(20 * time.Second); lines() <= 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no stage-2 decisions before the deadline")
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("collector exit: %v", err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(ckpt, "checkpoint-*.ipdc"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint written at shutdown")
	}
	var seq int
	if _, err := fmt.Sscanf(filepath.Base(ckpts[len(ckpts)-1]), "checkpoint-%d.ipdc", &seq); err != nil {
		t.Fatal(err)
	}
	if n := lines(); seq != n {
		t.Fatalf("newest checkpoint at seq %d, journal holds %d events", seq, n)
	}
}
