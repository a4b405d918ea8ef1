// Package cachepolicy quantifies the paper's §III-B caching argument:
// Belady's algorithm would be the optimal policy for deciding which KV
// tensors stay in GPU memory, but it needs future knowledge, so ALISA
// ships a heuristic ("keep the locally static tokens in the GPU, store the
// preceding ones in the CPU") that is claimed to "effectively reduce the
// potential CPU memory access".
//
// This package makes that claim measurable. A Trace is the sequence of
// per-step token-request sets produced by running a sparse-attention
// policy; a cache simulator replays the trace against a fixed-capacity
// fast tier under interchangeable eviction policies — clairvoyant Belady
// as the lower bound, LRU and FIFO as classical references, and ALISA's
// window-plus-recent-score heuristic — counting misses (CPU fetches).
package cachepolicy

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/attention"
	"repro/internal/oracle"
)

// Trace is a sequence of request sets over a growing token population:
// token t is born at step t and Requests[t] lists the distinct token
// indices step t's attention touched (including t itself), each in
// [0, t].
type Trace struct {
	Requests [][]int
}

// Steps returns the trace length.
func (t *Trace) Steps() int { return len(t.Requests) }

// TraceFromPolicy runs an attention policy over an oracle process and
// records which tokens each step actually touched — the request stream a
// KV cache must serve.
func TraceFromPolicy(spec oracle.Spec, pol attention.Policy, steps int) *Trace {
	proc := oracle.New(spec)
	tr := &Trace{Requests: make([][]int, 0, steps)}
	for t := 0; t < steps; t++ {
		rows := proc.Next()
		sel := pol.Select(0, t)
		indices, weights := oracle.MaskRow(rows[0], sel)
		pol.Observe(0, indices, weights)
		tr.Requests = append(tr.Requests, indices)
	}
	return tr
}

// Policy is an eviction policy: a name and a rank over a token's replay
// state. When the fast tier is full, the resident token of lowest
// (rank, token) that the current step did not request leaves. FIFO, LRU,
// Belady and AlisaHeuristic build the four policies.
type Policy struct {
	name string
	rank func(step, tok int, st *tokenState) int
}

// Name returns the policy's name, as Result.Policy reports it.
func (p Policy) Name() string { return p.name }

// FIFO evicts the token inserted longest ago.
func FIFO() Policy {
	return Policy{"fifo", func(_, _ int, st *tokenState) int { return st.inserted }}
}

// LRU evicts the token requested longest ago, its birth counting as a
// request.
func LRU() Policy {
	return Policy{"lru", func(_, tok int, st *tokenState) int {
		if past := st.past(); len(past) > 0 {
			return past[len(past)-1]
		}
		return tok
	}}
}

// Belady evicts the token whose next request lies farthest in the
// future, a token never requested again first — the clairvoyant optimum
// the paper rules out as impractical ("this oracle algorithm assumes
// future knowledge", §III-B).
func Belady() Policy {
	return Policy{"belady", func(_, _ int, st *tokenState) int {
		if next := st.future(); len(next) > 0 {
			return -next[0]
		}
		return math.MinInt
	}}
}

// AlisaHeuristic is the paper's practical policy: the locally static
// window (the newest window tokens) is evicted only when nothing older is
// cached, and among the rest the token requested least often in the last
// history steps goes first — the cache-level mirror of SWA's local
// attention sum.
func AlisaHeuristic(window, history int) Policy {
	if window < 0 || history <= 0 {
		panic(fmt.Sprintf("cachepolicy: bad heuristic parameters %d/%d", window, history))
	}
	return Policy{"alisa", func(step, tok int, st *tokenState) int {
		if tok >= step-window {
			return math.MaxInt // locally static: protected
		}
		// Requests in [step−history, step); the birth is not a use.
		past := st.past()
		from, _ := slices.BinarySearch(past, max(step-history, tok+1))
		return len(past) - from
	}}
}

// Result summarises one replay.
type Result struct {
	Policy   string
	Capacity int
	Requests int
	Misses   int
}

// MissRate returns misses per request.
func (r Result) MissRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Requests)
}

// replay is Replay's state. Tokens are dense — token t is born at step t
// — so the per-token state is one slice indexed by token.
type replay struct {
	resident []int // the cached tokens, in no particular order
	capacity int
	policy   Policy
	toks     []tokenState
}

type tokenState struct {
	slot     int   // index in resident; -1 when not cached
	pin      int   // 1 + the last step that requested the token
	inserted int   // step of the token's latest insertion
	uses     []int // the token's ascending request steps
	seen     int   // how many of uses lie at or before the current step
}

func (st *tokenState) past() []int   { return st.uses[:st.seen] }
func (st *tokenState) future() []int { return st.uses[st.seen:] }

// Replay serves the trace from a fast tier of the given token capacity
// under the policy. Each step: requested tokens not in the tier count as
// misses and are brought in (evicting victims as needed, but never tokens
// requested this same step); the newborn token is inserted last, matching
// the KV production order of a decode step. It panics naming the step on
// a trace that breaks Trace's contract.
func Replay(tr *Trace, capacity int, p Policy) Result {
	if capacity < 2 {
		panic(fmt.Sprintf("cachepolicy: capacity must be ≥ 2, got %d", capacity))
	}
	r := newReplay(tr, capacity, p)
	res := Result{Policy: p.name, Capacity: capacity}
	for step, req := range tr.Requests {
		for _, tok := range req {
			st := &r.toks[tok]
			if st.pin == step+1 {
				panic(fmt.Sprintf("cachepolicy: step %d requests token %d twice", step, tok))
			}
			st.pin = step + 1
			st.seen++
		}
		for _, tok := range req {
			if tok == step {
				continue // produced this step, not served from cache
			}
			res.Requests++
			if r.toks[tok].slot < 0 {
				res.Misses++
				r.insert(step, tok)
			}
		}
		r.insert(step, step)
	}
	return res
}

// newReplay indexes every token's request steps, counted in one pass and
// filled in a second, in one backing array.
func newReplay(tr *Trace, capacity int, p Policy) *replay {
	n := tr.Steps()
	r := &replay{resident: make([]int, 0, min(capacity, n)), capacity: capacity, policy: p, toks: make([]tokenState, n)}
	total := 0
	for step, req := range tr.Requests {
		for _, tok := range req {
			if tok < 0 || tok > step {
				panic(fmt.Sprintf("cachepolicy: step %d requests token %d outside [0, %d]", step, tok, step))
			}
			r.toks[tok].seen++
		}
		total += len(req)
	}
	backing, off := make([]int, total), 0
	for i := range r.toks {
		st := &r.toks[i]
		st.slot, st.uses = -1, backing[off:off:off+st.seen]
		off, st.seen = off+st.seen, 0
	}
	for step, req := range tr.Requests {
		for _, tok := range req {
			r.toks[tok].uses = append(r.toks[tok].uses, step)
		}
	}
	return r
}

// insert caches tok, evicting the policy's victim when the tier is full;
// when every cached token is requested this step, tok streams through
// instead.
func (r *replay) insert(step, tok int) {
	if len(r.resident) == r.capacity && !r.evict(step) {
		return
	}
	r.toks[tok].slot = len(r.resident)
	r.toks[tok].inserted = step
	r.resident = append(r.resident, tok)
}

// evict removes the unpinned resident token of lowest (rank, token) and
// reports whether there was one.
func (r *replay) evict(step int) bool {
	victim, best := -1, 0
	for _, tok := range r.resident {
		st := &r.toks[tok]
		if st.pin == step+1 {
			continue
		}
		if rank := r.policy.rank(step, tok, st); victim < 0 || rank < best || rank == best && tok < victim {
			victim, best = tok, rank
		}
	}
	if victim < 0 {
		return false
	}
	slot, last := r.toks[victim].slot, r.resident[len(r.resident)-1]
	r.resident[slot], r.toks[last].slot = last, slot
	r.resident = r.resident[:len(r.resident)-1]
	r.toks[victim].slot = -1
	return true
}
