package serve

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// scaleStreamConfig is the scale-mode streaming workload: the cheapest
// scheduler and small shapes, so the benchmark measures the loop's own
// per-request cost, not the cost model's.
func scaleStreamConfig() Config {
	return Config{
		Model:        model.MustByName("opt-6.7b"),
		Profile:      memsim.V100_16G(),
		Scheduler:    "gpu-only",
		KVBits:       16,
		MaxBatch:     8,
		ExactMetrics: -1,
	}
}

// runPacedStream drives requests [start, total) through the loop with a
// bounded live backlog: top the queue up to liveCap, advance until it
// half-drains, repeat — the open-loop client a scale run models, and the
// pacing that keeps every resource O(in-flight).
func runPacedStream(tb testing.TB, l *Loop, start, total, liveCap int) {
	tb.Helper()
	ctx := context.Background()
	next := start
	for next < total {
		for next < total && l.Pending()+l.Active() < liveCap {
			if err := l.Inject(workload.Request{ID: next, Arrival: l.Clock(), Input: 32, Output: 4}); err != nil {
				tb.Fatal(err)
			}
			next++
		}
		for l.Pending()+l.Active() > liveCap/2 {
			if _, err := l.Advance(ctx); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// benchRequests returns the request count for BenchmarkServeMillion:
// 10⁶ by default, overridable through SERVE_BENCH_REQUESTS (the CI smoke
// runs ~10⁵ to bound wall clock; the acceptance run uses the default).
func benchRequests(tb testing.TB) int {
	if s := os.Getenv("SERVE_BENCH_REQUESTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			tb.Fatalf("bad SERVE_BENCH_REQUESTS %q", s)
		}
		return n
	}
	return 1_000_000
}

// BenchmarkServeMillion streams a million requests through a scale-mode
// loop under paced injection and reports the steady-state allocation
// rate per request — the headline number of the O(in-flight) rebuild.
// Past warm-up nothing is allocated per request: records, queue slots,
// sequence state with its scheduler (re-Initialised, not rebuilt, at
// each admission), and digests all recycle, so allocs/req reads ~0 —
// what remains is the latency sketches' occasional compaction.
// TestServeAdmissionAllocsZero guards the same property.
func BenchmarkServeMillion(b *testing.B) {
	total := benchRequests(b)
	const liveCap = 256
	warm := 4096
	if warm > total/2 {
		warm = total / 2
	}
	for i := 0; i < b.N; i++ {
		l, err := NewLoop(scaleStreamConfig())
		if err != nil {
			b.Fatal(err)
		}
		runPacedStream(b, l, 0, warm, liveCap)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runPacedStream(b, l, warm, total, liveCap)
		runtime.ReadMemStats(&m1)
		if err := l.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		res := l.Finalize()
		if res.Completed != total {
			b.Fatalf("completed %d of %d", res.Completed, total)
		}
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(total-warm), "allocs/req")
		b.ReportMetric(float64(m1.HeapAlloc)/(1<<20), "heapMB")
	}
}

// TestServeMemoryTracksInFlight is the heap-growth guard of the scale
// rebuild: retained memory after a paced scale-mode stream must track
// the in-flight cap, not the number of requests served — a 5× longer
// stream at the same backlog may not retain measurably more. A per-
// request retention bug (records, queue slots, request list) of even
// ~50 bytes would show up as multiple MiB across the 32k-request gap;
// the guard allows 2 MiB of measurement noise.
func TestServeMemoryTracksInFlight(t *testing.T) {
	const liveCap = 64
	retained := func(total int) int64 {
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		l, err := NewLoop(scaleStreamConfig())
		if err != nil {
			t.Fatal(err)
		}
		runPacedStream(t, l, 0, total, liveCap)
		if err := l.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if res := l.Finalize(); res.Completed != total {
			t.Fatalf("completed %d of %d", res.Completed, total)
		}
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		heap := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
		runtime.KeepAlive(l)
		return heap
	}

	retained(2048) // warm pools and lazily-built runtime state
	small := retained(8192)
	large := retained(40960)
	growth := large - small
	t.Logf("retained: %d B after 8192 requests, %d B after 40960 (growth %d B)", small, large, growth)
	if growth > 2<<20 {
		t.Errorf("retained heap grew %d bytes across a 5× longer stream at the same in-flight cap; memory is not O(in-flight)", growth)
	}
}
