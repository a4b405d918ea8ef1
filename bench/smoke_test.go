package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

const definitionPath = "../BENCHMARK.json"

// TestSmokeAllWorkloads runs every workload at tiny sizes with tracing
// on and checks that each reports every metric the benchmark definition
// names, with its unit, and passes its output checks.
func TestSmokeAllWorkloads(t *testing.T) {
	def, err := loadDefinition(definitionPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, definition lists %v", got, names)
	}
	out := t.TempDir()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			r := measure(w, opts{seed: 3, seconds: 0, trace: true, small: true, outDir: out})
			if r.Failed != 0 || len(r.Failures) != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
			}
			for _, d := range append(def.EndToEnd, def.PerLayer...) {
				m, ok := r.find(d.Name)
				if !ok {
					t.Errorf("metric %s not reported", d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("metric %s in %s, definition says %s", d.Name, m.Unit, d.Unit)
				}
				if m.N == 0 {
					t.Errorf("metric %s has no samples", d.Name)
				}
			}
			for _, traced := range []bool{false, true} {
				line, err := contractLine(definitionPath, r, traced)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool                     `json:"correct"`
					Attempted *int                      `json:"attempted"`
					Failed    *int                      `json:"failed"`
					Metrics   map[string]map[string]any `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if parsed.Correct == nil || !*parsed.Correct || parsed.Attempted == nil || parsed.Failed == nil {
					t.Errorf("result line %s", line)
				}
				want := len(def.EndToEnd)
				if traced {
					want = len(def.PerLayer)
				}
				if len(parsed.Metrics) != want {
					t.Errorf("result line has %d metrics, want %d", len(parsed.Metrics), want)
				}
			}
			if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func TestTraceFileIsChromeTraceJSON(t *testing.T) {
	tr := newTracer(time.Now(), 0, 8)
	outer := tr.begin("outer", -1)
	inner := tr.begin("inner", 7)
	tr.end(inner)
	tr.end(outer)
	path := filepath.Join(t.TempDir(), "x.trace.json")
	if err := writeChromeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0 || doc.TraceEvents[1].Args["req"] != 7 {
		t.Fatalf("trace events %+v", doc.TraceEvents)
	}
	st := selfTimes(tr)
	outerDur := tr.spans[0].end - tr.spans[0].start
	innerDur := tr.spans[1].end - tr.spans[1].start
	if st["outer"].calls != 1 || st["inner"].calls != 1 || st["outer"].self != max(outerDur-innerDur, 0) || st["inner"].self != innerDur {
		t.Fatalf("self times outer %+v inner %+v", st["outer"], st["inner"])
	}
}

func TestTracerDropsPastCapacity(t *testing.T) {
	tr := newTracer(time.Now(), 0, 1)
	tr.end(tr.begin("a", -1))
	tr.end(tr.begin("b", -1))
	if len(tr.spans) != 1 || tr.dropped != 1 {
		t.Fatalf("spans %d dropped %d, want 1 and 1", len(tr.spans), tr.dropped)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("c", -1)) // untraced runs call through a nil tracer
}

func TestCPUTimeCountsWorkOnEveryGoroutine(t *testing.T) {
	work := func() uint64 {
		x := uint64(1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x
	}
	start := now()
	sum := work()
	alone := start.elapsed()

	start = now()
	done := make(chan uint64)
	go func() { done <- work() }()
	sum += work()
	sum += <-done
	both := start.elapsed()
	sink += float64(sum % 2)
	// The same work on two goroutines costs twice the CPU time, whether
	// they ran side by side or one after the other; a clock that counted
	// one thread would read about the same as alone.
	if alone.cpu <= 0 || both.cpu < alone.cpu*5/4 {
		t.Fatalf("work on one goroutine took %v of CPU time, on two %v", alone.cpu, both.cpu)
	}
	if d := (elapsed{wall: 3, cpu: 5}).minus(elapsed{wall: 1, cpu: 2}); d != (elapsed{wall: 2, cpu: 3}) {
		t.Errorf("minus = %+v", d)
	}
}

// A speed reading must come from a clock fine enough to time millisecond
// kernels (a tick-granular one reads them as zero, and the slowdown
// collapses towards 0), and must not allocate, so that it leaves the
// program's heap and collector alone.
func TestCoreSlowdownReadsSpeed(t *testing.T) {
	var s float64
	if allocs := testing.AllocsPerRun(2, func() { s = coreSlowdown() }); allocs != 0 {
		t.Errorf("a speed reading allocated %v times", allocs)
	}
	if !(s > 0.1 && s < 10) {
		t.Fatalf("slowdown %v: the kernels' CPU times are not being measured", s)
	}
	if got := atReference(3*time.Second, 1, 2); got != 2 {
		t.Errorf("3 s between readings 1 and 2 = %v s at the reference speed, want 2", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--trace", "maybe"},
		{"--compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(append(args, "--bounds", definitionPath)); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
