package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"ipd"
)

// TestLoopMatchesBinary pins the benchmark's copy of the cmd/ipd per-record
// loop to the binary: the steady loop from cold and `ipd -in`, built from
// the same tree, must print the same Appendix-B output for the same seeded
// trace.
func TestLoopMatchesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/ipd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ipd")
	if out, err := exec.Command("go", "build", "-o", bin, "ipd/cmd/ipd").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/ipd: %v\n%s", err, out)
	}

	w, err := newWorld(7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newEncodeTrace()
	start := w.scen.Start
	var werr error
	if err := w.stream(start, start.Add(25*time.Minute), steadyFlows, false, start, func(rec ipd.Record) {
		if werr == nil {
			werr = tr.add(rec)
		}
	}); err != nil || werr != nil {
		t.Fatal(err, werr)
	}
	trace, err := tr.bytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.ipd")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}

	var want, stderr bytes.Buffer
	cmd := exec.Command(bin, "-in", path)
	cmd.Stdout, cmd.Stderr = &want, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ipd -in: %v\n%s", err, stderr.Bytes())
	}

	var got bytes.Buffer
	n, err := newNode(false, nil, &got, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r := n.newReader(bytes.NewReader(trace))
	count := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := n.handle(rec, spanCtx{}); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if err := n.finish(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("ipd -in printed nothing")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("loop output (%d bytes) differs from ipd -in (%d bytes)", got.Len(), want.Len())
	}
	// The run summary cmd/ipd prints covers what the mapped output does
	// not show, such as the unclassified IPv6 space.
	st := n.eng.Stats()
	summary := fmt.Sprintf("ipd: %d records, %d cycles, %d classifications (%d invalidated, %d expired), %d splits, %d joins, %d drops, %d active ranges, %d mapped, %d journal events\n",
		count, st.Cycles, st.Classifications, st.Invalidations, st.Expirations,
		st.Splits, st.Joins, st.Drops, n.eng.RangeCount(), len(n.eng.Mapped()), n.att.journal.Recorded())
	if !bytes.Contains(stderr.Bytes(), []byte(summary)) {
		t.Fatalf("loop summary\n  %sdiffers from ipd -in's\n  %s", summary, stderr.Bytes())
	}
}
