package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// pass is what one timed window measured.
type pass struct {
	setup   time.Duration // building the node and restoring the checkpoint
	note    string        // workload-specific figures for the pass line
	records int           // records the engine counted
	offered int           // records the workload offered
	wall    time.Duration // window wall time
	cpu     time.Duration // process user+system CPU in the window
	heapMB  float64       // live heap left behind, over the pre-construction baseline
	ingest  time.Duration // CPU time of the ingest threads in the window
	cycleMS []float64     // stage-2 cycle stalls, wall time
	cyclePU []float64     // the same calls' thread CPU time, ms
	queryMS []float64     // query latency from due time
	lateMS  []float64     // cluster: offer-loop lateness
	shipMS  []float64     // cluster: offer-due to applied
	gcs     uint32
	gcPause time.Duration
	mallocs uint64
	allocB  uint64
}

// rate is records per second of the ingest threads' CPU time: the loop's
// thread in a closed loop, the receive and RunQueue threads of the
// collector, and the cluster core's Apply calls. Wall time would swing
// with host CPU steal, and in an open loop it only repeats the offered
// schedule until the system saturates.
func (p *pass) rate() float64 {
	return float64(p.records) / max(p.ingest.Seconds(), 1e-9)
}

// print writes the pass's own figures, so a run's spread can be read
// pass by pass.
func (p *pass) print(n int) {
	c := append([]float64(nil), p.cycleMS...)
	u := append([]float64(nil), p.cyclePU...)
	fmt.Printf("# pass %d: %.4gs, %d of %d records, %.0f records/s (%.0f per wall second), %.0f ns CPU/record, cycle wall p50 %.3g ms p90 %.3g ms, CPU p50 %.3g ms p90 %.3g ms%s\n",
		n, p.wall.Seconds(), p.records, p.offered, p.rate(), float64(p.records)/p.wall.Seconds(), p.cpuPerRecord(),
		quantile(c, 0.5), quantile(c, 0.9), quantile(u, 0.5), quantile(u, 0.9), p.note)
}

func (p *pass) cpuPerRecord() float64 {
	return float64(p.cpu.Nanoseconds()) / float64(max(p.records, 1))
}

// meter brackets a window: wall clock, process CPU and allocator counters.
type meter struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

// threadCPU is the calling OS thread's CPU time; callers lock their
// goroutine to the thread around the interval they measure. Host CPU steal
// is not in it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = processCPU()
	m.t0 = time.Now()
	return m
}

// stop fills the window fields of p, ending the window at end.
func (m *meter) stop(p *pass, end time.Time) {
	p.wall = end.Sub(m.t0)
	p.cpu = processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcs = ms.NumGC - m.ms.NumGC
	p.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
	p.mallocs = ms.Mallocs - m.ms.Mallocs
	p.allocB = ms.TotalAlloc - m.ms.TotalAlloc
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// queryRate is the fixed rate of the collector's reader goroutine.
const queryRate = 1000

// queryLoad is the open-loop reader: one goroutine issuing point queries
// at queryRate for addresses drawn from the stream, plus optional extra
// calls at given offsets from the start (the collector's per-bin Mapped).
// A query's latency counts from its due time, so the reader's own
// lateness is in it.
type queryLoad struct {
	stop chan struct{}
	done chan struct{}
	lat  []float64
}

// startQueries starts the reader; query is called with the query's index.
func startQueries(addrs []netip.Addr, query func(int, netip.Addr), extraAt []time.Duration, extra func()) *queryLoad {
	q := &queryLoad{stop: make(chan struct{}), done: make(chan struct{})}
	sch := schedule{start: time.Now(), rate: queryRate}
	go func() {
		defer close(q.done)
		next := 0
		for i := 0; ; i++ {
			due := sch.due(i)
			for next < len(extraAt) && !sch.start.Add(extraAt[next]).After(due) {
				extra()
				next++
			}
			if d := time.Until(due); d > 0 {
				select {
				case <-q.stop:
					return
				case <-time.After(d):
				}
			} else {
				select {
				case <-q.stop:
					return
				default:
				}
			}
			query(i, addrs[i%len(addrs)])
			q.lat = append(q.lat, ms(sch.latency(i, time.Now())))
		}
	}()
	return q
}

// finish stops the reader and waits for it.
func (q *queryLoad) finish(p *pass) {
	close(q.stop)
	<-q.done
	p.queryMS = append(p.queryMS, q.lat...)
}

// passes is a run's timed windows.
type passes []*pass

func (ps passes) pooled(f func(*pass) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p)...)
	}
	return out
}

func (ps passes) median(f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

func (ps passes) measured() time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.wall
	}
	return d
}

// enough reports whether the windows cover seconds and hold enough samples
// for every tail percentile reported: p90 of the cycle stalls, and p99 of
// the queries when the workload has a reader.
func (ps passes) enough(seconds int) bool {
	queries := len(ps.pooled(func(p *pass) []float64 { return p.queryMS }))
	return ps.measured() >= time.Duration(seconds)*time.Second &&
		hasTail(len(ps.pooled(func(p *pass) []float64 { return p.cyclePU })), 90) &&
		(queries == 0 || hasTail(queries, 99))
}

// maxPasses bounds a run that cannot gather its samples.
const maxPasses = 40

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 15

// runPasses runs timed passes until the run has measured seconds and holds
// enough samples for its tail percentiles, then tops the set-up samples up
// to minSetups with setupOnly. one runs pass n, counting from 1.
func runPasses(seconds int, one func(n int) (*pass, error), setupOnly func() (time.Duration, error)) (passes, []float64, error) {
	var ps passes
	var setups []float64
	for len(ps) < maxPasses && !ps.enough(seconds) {
		p, err := one(len(ps) + 1)
		if err != nil {
			return nil, nil, err
		}
		p.print(len(ps) + 1)
		ps = append(ps, p)
		setups = append(setups, p.setup.Seconds())
	}
	if !ps.enough(seconds) {
		return nil, nil, fmt.Errorf("%d passes did not gather enough samples", len(ps))
	}
	for len(setups) < minSetups {
		d, err := setupOnly()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return ps, setups, nil
}

// endToEnd computes the end-to-end metrics; setups are the set-up times
// measured in the run.
func (ps passes) endToEnd(setups []float64) (map[string]float64, error) {
	cycles := ps.pooled(func(p *pass) []float64 { return p.cyclePU })
	if !hasTail(len(cycles), 90) {
		return nil, fmt.Errorf("too few samples for the tail percentile: %d cycles", len(cycles))
	}
	wall := ps.pooled(func(p *pass) []float64 { return p.cycleMS })
	fmt.Printf("# cycle wall time p50 %.4g ms, p90 %.4g ms\n", quantile(wall, 0.5), quantile(wall, 0.9))
	m := map[string]float64{
		"records_per_s":     ps.median((*pass).rate),
		"cpu_ns_per_record": ps.median((*pass).cpuPerRecord),
		"cycle_cpu_ms_p50":  quantile(cycles, 0.5),
		"cycle_cpu_ms_p90":  quantile(cycles, 0.9),
		"heap_live_mb":      ps.median(func(p *pass) float64 { return p.heapMB }),
		"setup_s":           median(setups),
	}
	fmt.Printf("# %d timed passes, %.2fs measured, %d cycle samples\n", len(ps), ps.measured().Seconds(), len(cycles))
	return m, nil
}

// processLayers fills the process-level per-layer metrics.
func (ps passes) processLayers(m map[string]float64) {
	var gcs uint32
	var pause time.Duration
	var mallocs, allocB uint64
	records := 0
	for _, p := range ps {
		gcs += p.gcs
		pause += p.gcPause
		mallocs += p.mallocs
		allocB += p.allocB
		records += p.records
	}
	n := float64(max(len(ps), 1))
	m["gc.cycles"] = float64(gcs) / n
	m["gc.pause_ms"] = ms(pause) / n
	m["allocs_per_record"] = float64(mallocs) / float64(max(records, 1))
	m["alloc_bytes_per_record"] = float64(allocB) / float64(max(records, 1))
	late := ps.pooled(func(p *pass) []float64 { return p.lateMS })
	m["gen.late_ms_p99"] = quantile(late, 0.99)
}

// latencies returns the p50 and p99 of the pooled samples f picks, and
// prints them with their count; both are 0 without samples.
func (ps passes) latencies(name string, f func(*pass) []float64) (p50, p99 float64) {
	v := ps.pooled(f)
	if len(v) == 0 {
		return 0, 0
	}
	p50, p99 = quantile(v, 0.5), quantile(v, 0.99)
	fmt.Printf("# %s p50 %.4g ms, p99 %.4g ms over %d samples\n", name, p50, p99, len(v))
	return p50, p99
}

// failures totals offered against counted records.
func (ps passes) failures() (attempted, failed int) {
	for _, p := range ps {
		attempted += p.offered
		failed += p.offered - p.records
	}
	return attempted, failed
}

// layerDefaults returns every per-layer metric at 0, for the workload to
// fill in the ones its path has.
func layerDefaults() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

// onceErr collects the first error from several goroutines.
type onceErr struct {
	mu  sync.Mutex
	err error
}

func (o *onceErr) set(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil && err != nil {
		o.err = err
	}
}

func (o *onceErr) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
