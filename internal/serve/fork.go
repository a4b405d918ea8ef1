package serve

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/events"
)

// Fork builds a live Loop resuming from this one's current state, taken
// between turns, with obs as its observer (the zero Observer observes
// nothing). The fork is a deep copy: it and the original advance
// independently, each free to Inject different futures, and forking the
// same loop again gives another independent continuation from wherever
// the loop then stands. It fails on a finalized or errored loop.
//
// The copy is cheap in the sense that matters at scale: its size is the
// live state — wait-queue backlog, active batch, live-ID index, digest
// state — not the history of the run, so forking a million-request run
// mid-stream costs what forking a thousand-request run costs (plus the
// completed records and IDs the exact path keeps, when the run is below
// the exact-metrics threshold).
//
// Determinism contract, pinned by TestForkDeterminism: a fork driven
// through the same Inject/Advance sequence as the original produces a
// bit-identical Result — fork-then-advance ≡ straight-line advance.
func (l *Loop) Fork(obs events.Observer) (*Loop, error) {
	if l.finalized {
		return nil, fmt.Errorf("serve: cannot fork a finalized loop")
	}
	if l.err != nil {
		return nil, fmt.Errorf("serve: cannot fork a failed loop: %w", l.err)
	}
	return &Loop{s: l.s.clone(obs)}, nil
}

// clone copies the server by value, so a field added later is carried
// over without being listed here, then deep-copies every field that
// would otherwise share memory: simulated system (its time ledger
// included), wait queue, ID index, kept records, digest state, prefix
// cache, and each active sequence with its scheduler. The factory and
// cost model stay shared (stateless); obs becomes the copy's observer.
// Scratch (plans, attended, the sequence pool) starts empty — it is
// rebuilt on demand and never observable.
func (s *server) clone(obs events.Observer) server {
	c := *s
	c.cfg.Observer = obs
	c.sys = s.sys.Clone()
	c.queue = s.queue.Clone()
	c.ids = maps.Clone(s.ids)
	c.kept = slices.Clone(s.kept)
	c.plans, c.attended, c.seqPool = nil, nil, nil
	if s.dig != nil {
		c.dig = s.dig.clone()
	}
	if s.cache != nil {
		// Leases deep-copy with the index (refcounts are node state), and
		// each cloned sequence's leaseLen re-walks its own tokens on
		// release, so no pointer translation is needed.
		c.cache = s.cache.Clone()
	}
	c.active = make([]*seqState, len(s.active))
	for i, st := range s.active {
		ctx := *st.ctx
		ctx.Sys = c.sys
		seq := *st
		seq.sch = st.sch.CloneScheduler()
		seq.ctx = &ctx
		c.active[i] = &seq
	}
	return c
}
