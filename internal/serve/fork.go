package serve

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/events"
	"repro/internal/sched"
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
	return &Loop{s: *l.s.clone(obs)}, nil
}

// clone deep-copies the server so the copy can advance independently:
// simulated system, wait queue, ID index, kept records, totals, digest
// state, per-sequence scheduler state and records, and the
// result-in-progress are all duplicated; the
// factory and cost model are shared (stateless). obs becomes the copy's
// observer. Scratch (plans, attended, pools) starts empty — it is
// rebuilt on demand and never observable.
func (s *server) clone(obs events.Observer) *server {
	c := &server{
		cfg:                      s.cfg,
		sys:                      s.sys.Clone(),
		cost:                     s.cost,
		newSched:                 s.newSched,
		queue:                    s.queue.Clone(),
		injected:                 s.injected,
		exactLimit:               s.exactLimit,
		ids:                      maps.Clone(s.ids),
		kept:                     slices.Clone(s.kept),
		tot:                      s.tot,
		preemptions:              s.preemptions,
		iterations:               s.iterations,
		batchSum:                 s.batchSum,
		staticGPU:                s.staticGPU,
		staticCPU:                s.staticCPU,
		admissionBlockedHeadroom: s.admissionBlockedHeadroom,
		lastAdmitErr:             s.lastAdmitErr,
		kvTokenFP16:              s.kvTokenFP16,
		cacheTokenBytes:          s.cacheTokenBytes,
		prefillTokens:            s.prefillTokens,
		prefixPeakBytes:          s.prefixPeakBytes,
		res: &Result{
			Scheduler: s.res.Scheduler,
			Breakdown: s.res.Breakdown.Clone(),
		},
	}
	c.cfg.Observer = obs
	if s.dig != nil {
		c.dig = s.dig.clone()
	}
	if s.cache != nil {
		// Leases deep-copy with the index (refcounts are node state), and
		// each cloned sequence's leaseLen re-walks its own tokens on
		// release, so no pointer translation is needed.
		c.cache = s.cache.Clone()
	}

	c.active = make([]*seqState, 0, len(s.active))
	for _, st := range s.active {
		ctx := &sched.Context{}
		*ctx = *st.ctx
		ctx.Sys = c.sys
		ctx.Breakdown = c.res.Breakdown
		c.active = append(c.active, &seqState{
			req:      st.req,
			sch:      st.sch.CloneScheduler(),
			ctx:      ctx,
			j:        st.j,
			rec:      st.rec,
			seq:      st.seq,
			done:     st.done,
			leaseLen: st.leaseLen,
		})
	}
	return c
}
