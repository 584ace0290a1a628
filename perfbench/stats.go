package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer samples is one outlier, not a statistic.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of samples,
// sorting them in place; 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

// median is quantile(samples, 0.5) on a copy, leaving samples untouched.
func median(samples []float64) float64 {
	c := append([]float64(nil), samples...)
	return quantile(c, 0.5)
}

// hasTail reports whether n samples support percentile p (in (0, 100)):
// at least minTail samples lie beyond it.
func hasTail(n int, p float64) bool {
	return float64(n)*(1-p/100)+1e-9 >= minTail
}

// schedule is an open-loop timetable: event i is due at start + i/rate.
type schedule struct {
	start time.Time
	rate  float64 // events per second
}

// due returns when event i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// latency is how long event i took to complete at done, counted from when
// it was due — so a stall that delays later events counts against them
// too, not only against the event that hit it.
func (s schedule) latency(i int, done time.Time) time.Duration {
	return done.Sub(s.due(i))
}

// lateness is how far behind its timetable the generator issued event i
// at issued (0 when it was on time or early).
func (s schedule) lateness(i int, issued time.Time) time.Duration {
	if d := issued.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// span is one traced interval: a call the harness made into a layer.
type span struct {
	name       string
	start, end time.Time
	id         uint64 // this span's id (1-based; 0 = none)
	parent     uint64 // id of the span that caused it (0 = root)
	item       uint64 // record, batch, cycle or checkpoint id it served
}

// selfTime is a span's duration minus the part of it its children cover.
// Overlapping children are counted once, and child time outside the
// parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.end.Sub(parent.start) - covered
}

// heapDelta is the live heap a pass left behind: the post-window reading
// minus the baseline taken before construction, in MB. Input buffers that
// exist before construction are in both readings and cancel out.
func heapDelta(baseline, after uint64) float64 {
	return (float64(after) - float64(baseline)) / (1 << 20)
}
