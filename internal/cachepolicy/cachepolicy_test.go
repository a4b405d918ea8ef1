package cachepolicy

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/model"
	"repro/internal/oracle"
)

// handTrace builds a trace from explicit request sets.
func handTrace(reqs ...[]int) *Trace { return &Trace{Requests: reqs} }

func TestReplayCountsMisses(t *testing.T) {
	// Steps: 0 requests {0}; 1 requests {0,1}; 2 requests {0,2}.
	tr := handTrace([]int{0}, []int{0, 1}, []int{0, 2})
	res := Replay(tr, 4, NewFIFO())
	// Step 0: only the newborn — no cache-served requests.
	// Step 1: token 0 is cached (inserted at birth) — hit.
	// Step 2: token 0 hit again. Total requests 2 (newborns excluded).
	if res.Requests != 2 {
		t.Fatalf("requests = %d, want 2", res.Requests)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d, want 0 with ample capacity", res.Misses)
	}
}

func TestReplayEvictsUnderPressure(t *testing.T) {
	// Capacity 2, tokens born 0..3; step 3 re-requests token 0, which a
	// FIFO cache of 2 must have evicted.
	tr := handTrace([]int{0}, []int{1}, []int{2}, []int{0, 3})
	res := Replay(tr, 2, NewFIFO())
	if res.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (token 0 evicted)", res.Misses)
	}
}

func TestBeladyKeepsFutureUse(t *testing.T) {
	// Token 0 is re-requested at the end; Belady keeps it while FIFO
	// evicts it.
	tr := handTrace([]int{0}, []int{1}, []int{2}, []int{3}, []int{0, 4})
	fifo := Replay(tr, 2, NewFIFO())
	belady := Replay(tr, 2, NewBelady(tr))
	if belady.Misses >= fifo.Misses {
		t.Fatalf("belady %d misses should beat fifo %d", belady.Misses, fifo.Misses)
	}
	if belady.Misses != 0 {
		t.Fatalf("belady should serve this trace without misses, got %d", belady.Misses)
	}
}

func TestLRUBeatsFIFOOnReuse(t *testing.T) {
	// Token 0 reused every step: LRU keeps it hot, FIFO ages it out.
	reqs := [][]int{{0}}
	for step := 1; step < 10; step++ {
		reqs = append(reqs, []int{0, step})
	}
	tr := handTrace(reqs...)
	lru := Replay(tr, 3, NewLRU())
	fifo := Replay(tr, 3, NewFIFO())
	if lru.Misses > fifo.Misses {
		t.Fatalf("lru %d should not lose to fifo %d on a reuse trace", lru.Misses, fifo.Misses)
	}
	if lru.Misses != 0 {
		t.Fatalf("lru should keep the hot token resident, got %d misses", lru.Misses)
	}
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Replay(handTrace([]int{0}), 1, NewFIFO())
}

func TestHeuristicParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAlisaHeuristic(-1, 4)
}

// The §III-B claim, end to end: on a realistic SWA request trace, ALISA's
// heuristic sits between Belady's lower bound and FIFO, and close to
// Belady.
func TestHeuristicNearBeladyOnSWATrace(t *testing.T) {
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 77)
	spec.Layers = 1
	const steps = 320
	pol := attention.MustByName("swa", 0.2, 1)
	tr := TraceFromPolicy(spec, pol, steps)

	capacity := 64 // well below the ~320-token population
	window := 32   // the locally static half of the budget

	belady := Replay(tr, capacity, NewBelady(tr))
	lru := Replay(tr, capacity, NewLRU())
	fifo := Replay(tr, capacity, NewFIFO())
	alisa := Replay(tr, capacity, NewAlisaHeuristic(window, 64))

	if !(belady.Misses <= alisa.Misses && alisa.Misses <= fifo.Misses) {
		t.Fatalf("ordering broken: belady %d ≤ alisa %d ≤ fifo %d expected",
			belady.Misses, alisa.Misses, fifo.Misses)
	}
	if belady.Misses > lru.Misses {
		t.Fatalf("belady %d must lower-bound lru %d", belady.Misses, lru.Misses)
	}
	// "Effectively reduce the potential CPU memory access": the heuristic
	// recovers most of the gap between FIFO and the oracle.
	if fifo.Misses > belady.Misses {
		recovered := float64(fifo.Misses-alisa.Misses) / float64(fifo.Misses-belady.Misses)
		if recovered < 0.5 {
			t.Fatalf("heuristic recovers only %.0f%% of the FIFO→Belady gap (fifo=%d alisa=%d belady=%d)",
				recovered*100, fifo.Misses, alisa.Misses, belady.Misses)
		}
	}
}

func TestTraceFromPolicyShape(t *testing.T) {
	spec := oracle.DefaultSpec(1, 3)
	tr := TraceFromPolicy(spec, attention.MustByName("swa", 0.5, 1), 24)
	if tr.Steps() != 24 {
		t.Fatalf("trace steps = %d", tr.Steps())
	}
	for step, req := range tr.Requests {
		if len(req) == 0 || req[len(req)-1] != step {
			t.Fatalf("step %d request set must end with the newborn: %v", step, req)
		}
		for _, tok := range req {
			if tok < 0 || tok > step {
				t.Fatalf("step %d requested unborn token %d", step, tok)
			}
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	spec := oracle.DefaultSpec(1, 9)
	tr := TraceFromPolicy(spec, attention.MustByName("swa", 0.3, 1), 64)
	a := Replay(tr, 24, NewAlisaHeuristic(12, 32))
	b := Replay(tr, 24, NewAlisaHeuristic(12, 32))
	if a != b {
		t.Fatalf("nondeterministic replay: %+v vs %+v", a, b)
	}
}
