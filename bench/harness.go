package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// setupRuns is how many batches of set-ups each run times; the median
	// batch is setup_s, and every batch must produce the same inputs.
	setupRuns = 7
	// setupBatch is the least CPU time one batch of set-ups spans.
	setupBatch = 50 * time.Millisecond
	// minReps is the fewest timed repetitions a run takes, however long
	// each lasts.
	minReps = 3
)

// workloadDef is one named traffic mix: set-up builds its seeded inputs and
// compiled engine, and the returned instance runs repetitions of one
// fixed amount of work.
type workloadDef struct {
	name  string
	setup func(o opts) (instance, error)
}

type instance interface {
	// rep runs one repetition. ts is nil on untraced repetitions; mid is
	// called once, halfway through the repetition's work.
	rep(ts *traceSet, mid func()) (repOut, error)
	// inputs identifies the generated inputs, so repeated set-ups can be
	// checked to generate the same ones.
	inputs() string
}

// repOut is what one repetition reports.
type repOut struct {
	items  int // work items attempted: suites, requests or streams
	failed int // items whose output check failed
	// digest identifies the deterministic outputs; every repetition of a
	// run must reproduce the warm-up's.
	digest string
	// values are per-repetition end-to-end metrics beyond the common ones.
	values []value
	// layers are the per-layer metrics a traced repetition derives from
	// its spans and counters.
	layers []metric
	// timed, when its CPU time is set, is the repetition's timed window: a
	// repetition that starts and stops a server around its work times
	// only the work.
	timed elapsed
}

// value is one per-repetition sample of a named metric; exact marks a
// simulated result, which every repetition must reproduce.
type value struct {
	name, unit, better string
	exact              bool
	v                  float64
}

// Linux's CPU-time clocks, read with clock_gettime to the nanosecond;
// getrusage counts a thread's time in scheduler ticks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark builds for
	}
	return time.Duration(ts.Nano())
}

// cpuTime returns the CPU time the process has used, in user and system
// mode, summed over its threads.
//
// The benchmark's times are CPU time, not wall time: on the shared
// machines it runs on, other tenants take a core away for seconds at a
// time, which stretches the wall time of the multi-goroutine workloads by
// up to half while their CPU time stays put.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// clock is one reading of wall and CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

// elapsed is a stretch of wall and CPU time.
type elapsed struct {
	wall, cpu time.Duration
}

func now() clock { return clock{wall: time.Now(), cpu: cpuTime()} }

func (c clock) elapsed() elapsed {
	return elapsed{wall: time.Since(c.wall), cpu: cpuTime() - c.cpu}
}

func (e elapsed) minus(o elapsed) elapsed { return elapsed{wall: e.wall - o.wall, cpu: e.cpu - o.cpu} }

// traceSet hands out one tracer per client goroutine of a traced
// repetition, all sharing one epoch.
type traceSet struct {
	epoch    time.Time
	capacity int
	mu       sync.Mutex
	lanes    []*tracer
}

func newTraceSet(capacity int) *traceSet {
	return &traceSet{epoch: time.Now(), capacity: capacity}
}

// lane returns a fresh tracer, or nil when ts is nil (untraced).
func (ts *traceSet) lane() *tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := newTracer(ts.epoch, len(ts.lanes), ts.capacity)
	ts.lanes = append(ts.lanes, t)
	return t
}

// midpoint is the heap sample a repetition takes halfway: the forced
// collections' cost is excluded from the repetition's time.
type midpoint struct {
	heapMB float64
	cost   elapsed
}

func (m *midpoint) sample() {
	start := now()
	// The second collection frees what the first left in sync.Pool
	// victim caches, so the sample counts live data only.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	m.cost = start.elapsed()
}

// timedRep is one measured repetition.
type timedRep struct {
	out    repOut
	err    error
	took   elapsed // the repetition's time, less the midpoint sample's
	cpu    float64 // took's CPU seconds at the reference speed
	heapMB float64 // live heap at the midpoint
	allocs uint64  // heap allocations during the repetition
}

// runRep runs one repetition of inst and times it between two speed
// readings: before, taken after the previous repetition, and the one it
// takes after this one, which it returns for the next. The repetition
// starts from a collected heap, so that every one starts at the same
// point of the collector's cycle, and leaves one behind.
func runRep(inst instance, ts *traceSet, before float64) (timedRep, float64) {
	var mid midpoint
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	out, err := inst.rep(ts, mid.sample)
	took := start.elapsed()
	if out.timed.cpu > 0 {
		took = out.timed
	}
	took = took.minus(mid.cost)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	after := coreSlowdown()
	return timedRep{
		out: out, err: err, took: took, cpu: atReference(took.cpu, before, after),
		heapMB: mid.heapMB, allocs: m1.Mallocs - m0.Mallocs,
	}, after
}

// atReference converts CPU time measured between two speed readings to
// seconds at the reference speed.
func atReference(cpu time.Duration, before, after float64) float64 {
	return cpu.Seconds() * 2 / (before + after)
}

// timeSetups runs set-up in batches that each span at least setupBatch
// of CPU time, and returns the set-up's mean CPU time in one batch and the
// last instance. The clock is read after 1, 2, 4, … set-ups, so that
// reading it costs little next to set-ups of a few microseconds.
func timeSetups(w workloadDef, o opts) (time.Duration, instance, error) {
	var inst instance
	n := 0
	start := now()
	for chunk := 1; ; chunk *= 2 {
		for i := 0; i < chunk; i++ {
			in, err := w.setup(o)
			if err != nil {
				return 0, nil, err
			}
			inst = in
			n++
		}
		if took := start.elapsed(); took.cpu >= setupBatch {
			return took.cpu / time.Duration(n), inst, nil
		}
	}
}

// measure sets a workload up, warms it up, times repetitions for
// o.seconds of wall time, and with o.trace adds one traced repetition and
// the layer probes.
func measure(w workloadDef, o opts) result {
	r := result{Workload: w.name, Seed: o.seed}

	var inst instance
	var setups, speeds []float64
	inputs := ""
	runtime.GC()
	speed := coreSlowdown()
	for b := 0; b < setupRuns; b++ {
		s, in, err := timeSetups(w, o)
		if err != nil {
			r.fail("set-up: %v", err)
			r.Attempted, r.Failed = 1, 1
			return r
		}
		runtime.GC()
		before := speed
		speed = coreSlowdown()
		inst = in
		setups = append(setups, atReference(s, before, speed))
		if b == 0 {
			inputs = inst.inputs()
		} else if inst.inputs() != inputs {
			r.fail("set-up batch %d generated different inputs from the same seed", b)
		}
	}
	runtime.GC()

	warm, err := inst.rep(nil, func() {})
	if err != nil {
		r.fail("warm-up: %v", err)
		r.Attempted, r.Failed = max(warm.items, 1), max(warm.items, 1)
		return r
	}
	r.Digest = warm.digest
	if warm.failed > 0 {
		r.fail("warm-up: %d of %d items failed their checks", warm.failed, warm.items)
	}

	var cpuMs, rates, heaps, allocs, cpus []float64
	extra := map[string][]float64{}
	var extraOrder []value
	runtime.GC()
	speed = coreSlowdown()
	// Another repetition starts while one of average length would end less
	// than half a repetition past o.seconds.
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds()*(1+0.5/float64(rep)) < o.seconds; rep++ {
		var t timedRep
		t, speed = runRep(inst, nil, speed)
		speeds = append(speeds, speed)
		out := t.out
		r.Attempted += out.items
		r.Failed += out.failed
		if t.err != nil {
			r.fail("repetition %d: %v", rep, t.err)
			r.Failed += out.items - out.failed
			break
		}
		if out.failed > 0 {
			r.fail("repetition %d: %d of %d items failed their checks", rep, out.failed, out.items)
		}
		if out.digest != r.Digest {
			r.fail("repetition %d: outputs differ from the warm-up's (digest %s, want %s)", rep, out.digest, r.Digest)
			r.Failed += out.items - out.failed
		}
		items := float64(max(out.items, 1))
		cpus = append(cpus, t.cpu)
		cpuMs = append(cpuMs, t.cpu*1e3/items)
		rates = append(rates, float64(out.items-out.failed)/t.took.wall.Seconds())
		heaps = append(heaps, t.heapMB)
		allocs = append(allocs, float64(t.allocs)/items)
		for _, v := range out.values {
			if _, seen := extra[v.name]; !seen {
				extraOrder = append(extraOrder, v)
			}
			extra[v.name] = append(extra[v.name], v.v)
		}
	}

	r.EndToEnd = []metric{
		sampled("setup_s", "s", "lower", setups),
		sampled("cpu_ms_per_item", "ms", "lower", cpuMs),
		sampled("heap_mb", "MB", "lower", heaps),
		sampled("items_per_s", "1/s", "higher", rates),
		single("fail_ratio", "ratio", "lower", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted),
		sampled("allocs_per_item", "count", "lower", allocs),
	}
	for _, v := range extraOrder {
		m := sampled(v.name, v.unit, v.better, extra[v.name])
		m.Exact = v.exact
		if v.exact && m.Q1 != m.Q3 {
			r.fail("simulated metric %s differs across repetitions (%v)", v.name, extra[v.name])
		}
		r.EndToEnd = append(r.EndToEnd, m)
	}

	r.Slowdown = summarize(speeds)
	if o.trace {
		r.PerLayer = traced(&r, inst, o, w.name, summarize(cpus).Median, speed)
	}
	return r
}

// traced runs one traced repetition with the run's seed, writes its
// spans as a Chrome trace, and returns the per-layer metrics: the
// repetition's own, the layer probes, and the tracing overhead.
func traced(r *result, inst instance, o opts, name string, untracedCPU, speed float64) []metric {
	ts := newTraceSet(traceCapacity)
	t, _ := runRep(inst, ts, speed)
	out := t.out
	if t.err != nil {
		r.fail("traced repetition: %v", t.err)
		r.Failed += max(out.items, 1)
		return nil
	}
	if out.digest != r.Digest {
		r.fail("traced repetition: outputs differ from the untraced run's")
		r.Failed += out.items
	}
	// The trace file is a by-product for reading in a viewer, not an
	// output of the program under test: failing to write it is reported
	// and does not fail the run.
	path := filepath.Join(o.outDir, name+".trace.json")
	if err := writeChromeTrace(path, ts.lanes...); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: writing the trace: %v\n", name, err)
	}
	spans, dropped := 0, 0
	for _, tr := range ts.lanes {
		spans += len(tr.spans)
		dropped += tr.dropped
	}
	layers := append(out.layers,
		single("bench.trace_overhead", "ratio", "", t.cpu/untracedCPU, 1),
		single("bench.spans", "count", "", float64(spans), spans),
		single("bench.spans_dropped", "count", "", float64(dropped), spans+dropped),
	)
	layers = append(layers, probeLayers(o)...)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	return layers
}

// traceCapacity bounds each tracer's preallocated span slice: one
// traced serve-scale repetition, the largest, records about 1.7×10⁵
// spans.
const traceCapacity = 1 << 18

// spanMetric reports a percentile of one span name's call durations, in
// the given unit, or false when the sample does not support it.
func spanMetric(st map[string]*layerTime, span, name, unit string, p, scale float64) (metric, bool) {
	lt := st[span]
	if lt == nil {
		return metric{}, false
	}
	v, ok := percentile(lt.durs, p)
	if !ok {
		return metric{}, false
	}
	return single(name, unit, "lower", v*scale, lt.calls), true
}

// spanMetrics collects spanMetric results for several percentiles,
// skipping the ones the sample cannot support.
func spanMetrics(st map[string]*layerTime, span, prefix, unit string, scale float64, ps ...float64) []metric {
	var out []metric
	for _, p := range ps {
		if m, ok := spanMetric(st, span, fmt.Sprintf("%s.p%g", prefix, p), unit, p, scale); ok {
			out = append(out, m)
		}
	}
	return out
}
