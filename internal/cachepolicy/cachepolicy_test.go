package cachepolicy

import (
	"math"
	"math/rand"
	"slices"
	"strings"
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
	res := Replay(tr, 4, FIFO())
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
	res := Replay(tr, 2, FIFO())
	if res.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (token 0 evicted)", res.Misses)
	}
}

func TestBeladyKeepsFutureUse(t *testing.T) {
	// Token 0 is re-requested at the end; Belady keeps it while FIFO
	// evicts it.
	tr := handTrace([]int{0}, []int{1}, []int{2}, []int{3}, []int{0, 4})
	fifo := Replay(tr, 2, FIFO())
	belady := Replay(tr, 2, Belady())
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
	lru := Replay(tr, 3, LRU())
	fifo := Replay(tr, 3, FIFO())
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
	Replay(handTrace([]int{0}), 1, FIFO())
}

func TestHeuristicParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AlisaHeuristic(-1, 4)
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

	belady := Replay(tr, capacity, Belady())
	lru := Replay(tr, capacity, LRU())
	fifo := Replay(tr, capacity, FIFO())
	alisa := Replay(tr, capacity, AlisaHeuristic(window, 64))

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
	a := Replay(tr, 24, AlisaHeuristic(12, 32))
	b := Replay(tr, 24, AlisaHeuristic(12, 32))
	if a != b {
		t.Fatalf("nondeterministic replay: %+v vs %+v", a, b)
	}
}

// randomTrace builds a well-formed trace: step t requests a sorted subset
// of [0, t) — mostly recent tokens, some old ones — followed by t.
func randomTrace(rng *rand.Rand, steps, maxReq int) *Trace {
	tr := &Trace{}
	for t := 0; t < steps; t++ {
		picked := map[int]bool{}
		for k := rng.Intn(min(t, maxReq) + 1); len(picked) < k; {
			if rng.Float64() < 0.6 {
				picked[t-1-rng.Intn(min(t, 8))] = true
			} else {
				picked[rng.Intn(t)] = true
			}
		}
		req := make([]int, 0, len(picked)+1)
		for tok := range picked {
			req = append(req, tok)
		}
		slices.Sort(req)
		tr.Requests = append(tr.Requests, append(req, t))
	}
	return tr
}

// refPolicy is a reference eviction rule: pick the victim among the
// unpinned cached candidates at step.
type refPolicy struct {
	name   string
	victim func(tr *Trace, ref *refState, step int, candidates []int) int
}

// refState is the reference replay's history, kept in maps.
type refState struct {
	inserted map[int]int // step of the latest insertion
	last     map[int]int // set by a request; by an insertion only if absent
}

// refLowest returns the candidate of lowest key, ties to the lower token.
func refLowest(candidates []int, key func(tok int) int) int {
	best := -1
	for _, tok := range candidates {
		if best < 0 || key(tok) < key(best) || key(tok) == key(best) && tok < best {
			best = tok
		}
	}
	return best
}

// requested reports whether step s of the trace requested tok.
func requested(tr *Trace, s, tok int) bool { return slices.Contains(tr.Requests[s], tok) }

var refFIFO = refPolicy{"fifo", func(_ *Trace, ref *refState, _ int, cands []int) int {
	return refLowest(cands, func(tok int) int { return ref.inserted[tok] })
}}

var refLRU = refPolicy{"lru", func(_ *Trace, ref *refState, _ int, cands []int) int {
	return refLowest(cands, func(tok int) int { return ref.last[tok] })
}}

// refBelady evicts the candidate whose next request is farthest away,
// scanning the rest of the trace; a token never requested again goes
// first.
var refBelady = refPolicy{"belady", func(tr *Trace, _ *refState, step int, cands []int) int {
	best, bestNext := -1, -1
	for _, tok := range cands {
		next := math.MaxInt
		for s := step + 1; s < tr.Steps(); s++ {
			if requested(tr, s, tok) {
				next = s
				break
			}
		}
		if next > bestNext || next == bestNext && tok < best {
			best, bestNext = tok, next
		}
	}
	return best
}}

// refAlisa protects the newest window tokens and evicts the candidate
// with the fewest requests (births excluded) in the last history steps;
// when every candidate is protected, the oldest goes.
func refAlisa(window, history int) refPolicy {
	return refPolicy{"alisa", func(tr *Trace, _ *refState, step int, cands []int) int {
		var open []int
		for _, tok := range cands {
			if tok < step-window {
				open = append(open, tok)
			}
		}
		if len(open) == 0 {
			return slices.Min(cands)
		}
		return refLowest(open, func(tok int) int {
			n := 0
			for s := max(0, step-history); s < step; s++ {
				if s != tok && requested(tr, s, tok) {
					n++
				}
			}
			return n
		})
	}}
}

// refReplay is Replay written plainly: a cached-token map, and the
// candidates rebuilt by a full rescan on every eviction.
func refReplay(tr *Trace, capacity int, pol refPolicy) Result {
	cached := map[int]bool{}
	ref := &refState{inserted: map[int]int{}, last: map[int]int{}}
	res := Result{Policy: pol.name, Capacity: capacity}
	for step, req := range tr.Requests {
		insert := func(tok int) {
			if len(cached) >= capacity {
				var cands []int
				for c := range cached {
					if !slices.Contains(req, c) {
						cands = append(cands, c)
					}
				}
				if len(cands) == 0 {
					return // the request set fills the tier: stream through
				}
				delete(cached, pol.victim(tr, ref, step, cands))
			}
			cached[tok] = true
			ref.inserted[tok] = step
			if _, ok := ref.last[tok]; !ok {
				ref.last[tok] = step
			}
		}
		for _, tok := range req {
			if tok == step {
				continue
			}
			res.Requests++
			ref.last[tok] = step
			if !cached[tok] {
				res.Misses++
				insert(tok)
			}
		}
		insert(step)
	}
	return res
}

func TestReplayMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const maxReq = 12
		tr := randomTrace(rng, 300, maxReq)
		largest := 0
		for _, req := range tr.Requests {
			largest = max(largest, len(req))
		}
		type pair struct {
			pol Policy
			ref refPolicy
		}
		pairs := []pair{{FIFO(), refFIFO}, {LRU(), refLRU}, {Belady(), refBelady}}
		for _, window := range []int{0, 3, 10} {
			for _, history := range []int{1, 5, 40} {
				pairs = append(pairs, pair{AlisaHeuristic(window, history), refAlisa(window, history)})
			}
		}
		for _, capacity := range []int{2, 6, largest + 1, tr.Steps()} {
			for _, pr := range pairs {
				got, want := Replay(tr, capacity, pr.pol), refReplay(tr, capacity, pr.ref)
				if got != want {
					t.Fatalf("seed %d capacity %d %s: Replay %+v, reference %+v",
						seed, capacity, pr.pol.Name(), got, want)
				}
			}
		}
	}
}

func TestReplayPanicsOnMalformedTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"unborn", handTrace([]int{0}, []int{1}, []int{0, 3, 2}), "step 2"},
		{"negative", handTrace([]int{0}, []int{-1, 1}), "step 1"},
		{"repeated", handTrace([]int{0}, []int{1}, []int{1, 1, 2}), "step 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			Replay(tc.tr, 4, LRU())
		})
	}
}

// A replay's allocations are its set-up: none per eviction or request.
func TestReplayAllocsIndependentOfEvictions(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)), 200, 10)
	for _, p := range []Policy{FIFO(), LRU(), Belady(), AlisaHeuristic(4, 16)} {
		ample := testing.AllocsPerRun(20, func() { Replay(tr, tr.Steps(), p) })
		tight := testing.AllocsPerRun(20, func() { Replay(tr, 3, p) })
		if ample != tight {
			t.Fatalf("%s: %v allocations at an ample capacity, %v at capacity 3", p.Name(), ample, tight)
		}
		if r := Replay(tr, 3, p); r.Misses*2 < tr.Steps() {
			t.Fatalf("%s: capacity 3 missed only %d times in %d steps", p.Name(), r.Misses, tr.Steps())
		}
	}
}
