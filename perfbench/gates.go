package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"ipd"
)

// partitionDigest hashes the event-determined partition (prefix,
// classification, ingress, sketch flag) of a snapshot.
func partitionDigest(infos []ipd.RangeInfo) string {
	h := sha256.New()
	for _, v := range ipd.ProjectRanges(infos) {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// u128 is an address as a 128-bit integer, for walking a partition.
type u128 struct{ hi, lo uint64 }

func addrInt(a netip.Addr) u128 {
	b := a.As16()
	return u128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// last returns the highest address of p as an integer.
func last(p netip.Prefix) u128 {
	x := addrInt(p.Addr())
	host := 128 - p.Bits()
	if p.Addr().Is4() {
		host = 32 - p.Bits()
	}
	switch {
	case host >= 128:
		return u128{math.MaxUint64, math.MaxUint64}
	case host > 64:
		return u128{x.hi | (1<<(host-64) - 1), math.MaxUint64}
	case host == 64:
		return u128{x.hi, math.MaxUint64}
	default:
		return u128{x.hi, x.lo | (1<<host - 1)}
	}
}

func (x u128) inc() (u128, bool) {
	if x.lo == math.MaxUint64 {
		return u128{x.hi + 1, 0}, x.hi == math.MaxUint64
	}
	return u128{x.hi, x.lo + 1}, false
}

// checkPartition requires the ranges to partition each address family
// exactly — no gap, no overlap — and each range's total to equal the sum of
// its counters.
func checkPartition(infos []ipd.RangeInfo) error {
	for _, v6 := range []bool{false, true} {
		var ps []netip.Prefix
		for _, ri := range infos {
			if ri.Prefix.Addr().Is6() == v6 {
				ps = append(ps, ri.Prefix)
			}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Addr().Less(ps[j].Addr()) })
		start, end := u128{}, u128{math.MaxUint64, math.MaxUint64}
		if !v6 {
			start, end = addrInt(netip.AddrFrom4([4]byte{})), addrInt(netip.AddrFrom4([4]byte{255, 255, 255, 255}))
		}
		next := start
		for i, p := range ps {
			if p != p.Masked() {
				return gateErr("range %s is not a masked prefix", p)
			}
			if addrInt(p.Addr()) != next {
				return gateErr("partition has a gap or overlap at %s", p)
			}
			l := last(p)
			if l == end {
				if i != len(ps)-1 {
					return gateErr("ranges after %s overlap the end of the address space", p)
				}
				next = start // wrapped: the family is covered
				break
			}
			next, _ = l.inc()
		}
		if next != start || len(ps) == 0 {
			return gateErr("ranges do not cover the whole %s space", family(v6))
		}
	}
	for _, ri := range infos {
		var sum float64
		for _, c := range ri.Counters {
			sum += c
		}
		if math.Abs(sum-ri.Samples) > 1e-9*math.Max(1, math.Abs(ri.Samples)) {
			return gateErr("range %s total %v differs from its counter sum %v", ri.Prefix, ri.Samples, sum)
		}
	}
	return nil
}

func family(v6 bool) string {
	if v6 {
		return "IPv6"
	}
	return "IPv4"
}

// checkRoundTrip requires a checkpoint of eng to restore into a fresh
// engine that re-encodes it byte-identically.
func checkRoundTrip(eng *ipd.Engine, governed bool) error {
	data := eng.MarshalState()
	cfg, _, err := engineConfig(governed)
	if err != nil {
		return err
	}
	fresh, err := ipd.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := fresh.UnmarshalState(data); err != nil {
		return gateErr("checkpoint does not restore: %v", err)
	}
	if !bytes.Equal(fresh.MarshalState(), data) {
		return gateErr("checkpoint round trip is not byte-identical")
	}
	return nil
}

// checkJournalTail restores the warm checkpoint, replays the window's
// journal tail through the JSONL decision-log path (cmd/ipd's crash
// recovery), and requires RangeViewsEqual to accept the result against the
// final partition.
func checkJournalTail(warm []byte, governed bool, events []ipd.Event, final []ipd.RangeInfo) error {
	cfg, _, err := engineConfig(governed)
	if err != nil {
		return err
	}
	eng, err := ipd.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := eng.UnmarshalState(warm); err != nil {
		return err
	}
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := ipd.ReplayJournalTail(&log, eng.Seq(), eng.ApplyEvent); err != nil {
		return gateErr("journal tail does not replay: %v", err)
	}
	replayed, want := ipd.ProjectRanges(eng.Snapshot()), ipd.ProjectRanges(final)
	if ipd.RangeViewsEqual(replayed, want) {
		return nil
	}
	if len(replayed) != len(want) {
		return gateErr("warm checkpoint plus journal tail gives %d ranges, the run ended with %d", len(replayed), len(want))
	}
	differ, first := 0, -1
	for i := range replayed {
		if fmt.Sprintf("%+v", replayed[i]) != fmt.Sprintf("%+v", want[i]) {
			differ++
			if first < 0 {
				first = i
			}
		}
	}
	return gateErr("warm checkpoint plus journal tail differs from the final partition in %d of %d ranges, first %+v where the run ended with %+v",
		differ, len(want), replayed[first], want[first])
}

// checkEngine runs the gates every closed-loop and cluster workload shares.
func checkEngine(eng *ipd.Engine, governed bool, warm []byte, events []ipd.Event) error {
	final := eng.Snapshot()
	if err := checkPartition(final); err != nil {
		return err
	}
	if err := checkRoundTrip(eng, governed); err != nil {
		return err
	}
	return checkJournalTail(warm, governed, events, final)
}
