package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/netip"
	"sort"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/trafficgen"
)

// goldenStream is a fixed-seed synthetic trace: 40 minutes of the default
// scenario at 3k flows/min, dual-stack, no diurnal modulation. With flood
// set, minutes 20-27 also carry a mixed-ingress address scan across
// 100.64.0.0/10 (4k sources/min, alternating two ingresses), the overload
// that drives the governor and the sketch tier.
func goldenStream(t *testing.T, flood bool) []flow.Record {
	t.Helper()
	scen, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.GenConfig{FlowsPerMinute: 3000, NoiseFraction: 0.005, Seed: 7, IPv6Fraction: 0.1}
	start := scen.Start
	recs, err := scen.Records(start, start.Add(40*time.Minute), gen)
	if err != nil {
		t.Fatal(err)
	}
	if !flood {
		return recs
	}
	const perMin = 4000
	for m := 20; m < 28; m++ {
		minute := start.Add(time.Duration(m) * time.Minute)
		for i := 0; i < perMin; i++ {
			j := uint32(m*perMin + i)
			h := j * 2654435761
			in := inA
			if i%2 == 1 {
				in = inB
			}
			recs = append(recs, flow.Record{
				Ts:  minute.Add(time.Duration(i) * time.Minute / perMin),
				Src: netip.AddrFrom4([4]byte{100, 64 | byte(h>>24)&0x3f, byte(h >> 16), byte(h >> 8)}),
				In:  in, Bytes: 60, Packets: 1,
			})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Ts.Before(recs[j].Ts) })
	return recs
}

// goldenConfig is testConfig (the default config with n_cidr factors
// scaled to the trace) or, governed, testConfig with an 8k per-IP budget
// held by MaxIPStates, a governor and the sketch tier.
func goldenConfig(t *testing.T, governed bool) Config {
	t.Helper()
	cfg := testConfig()
	if governed {
		const budget = 8000
		g, err := governor.New(governor.Config{MaxIPStates: budget, SketchTier: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Governor = g
		cfg.MaxIPStates = budget
		cfg.Sketch = true
	}
	return cfg
}

// TestGoldenDigests pins the exact bytes of a fixed-seed run: the SHA-256 of
// the final MarshalState checkpoint and of the JSONL journal (one
// json.Marshal line per event, the journal sink's format). Any change to the
// LPM trie, the stage-2 sweep order or the checkpoint encoding that alters
// a decision, a merge order, an event Seq or a checkpoint byte fails here.
// The constants are only to be regenerated for a deliberate change of
// engine behaviour, never for a refactor or a speedup.
func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name                   string
		governed               bool
		wantState, wantJournal string
	}{
		{name: "default",
			wantState:   "afbfdcf3ff1acab7f3e45a95ae423f37ee4a435b725595619dbf093112da3bd1",
			wantJournal: "2a3a51dc5baac4b99754ff9bb98287b85aa724fe6b5f8f2be03b922eb31055d0"},
		{name: "governed-sketch", governed: true,
			wantState:   "d6e21876e0a2632ef1477b0321c4c897340f917b3c1d88c6ee93fec4cf836ff8",
			wantJournal: "6c88236017309e90260772b3fa960633e2aed065f568de1c329dc262fcc4f11f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := goldenStream(t, tc.governed)
			cfg := goldenConfig(t, tc.governed)
			journal := sha256.New()
			kinds := map[EventKind]int{}
			cfg.OnEvent = func(ev Event) {
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				journal.Write(append(b, '\n'))
				kinds[ev.Kind]++
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				e.Feed(r)
			}
			state := sha256.Sum256(e.MarshalState())

			// The stream must exercise every partition move the change
			// under test could reorder.
			if kinds[EventSplit] == 0 || kinds[EventJoined] == 0 || kinds[EventDropped] == 0 ||
				(tc.governed && kinds[EventStateMode] == 0) {
				t.Fatalf("stream too weak: events %v", kinds)
			}
			if got := hex.EncodeToString(state[:]); got != tc.wantState {
				t.Errorf("MarshalState sha256 = %s, want %s", got, tc.wantState)
			}
			if got := hex.EncodeToString(journal.Sum(nil)); got != tc.wantJournal {
				t.Errorf("journal sha256 = %s, want %s", got, tc.wantJournal)
			}
		})
	}
}
