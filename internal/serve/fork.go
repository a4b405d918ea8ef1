package serve

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/events"
	"repro/internal/sched"
)

// Snapshot is a frozen deep copy of a running Loop, taken between turns.
// It is inert — it has no transitions of its own — and exists to be
// forked: each Fork call clones the snapshot again, so any number of
// independent continuations can branch from the same point, each free to
// Inject different futures. The snapshot stays valid however far the
// original loop (or any fork) advances.
//
// The copy is cheap in the sense that matters at scale: its size is the
// live state — wait-queue backlog, active batch, live-ID index, digest
// state — not the history of the run, so snapshotting a million-request
// run mid-stream costs what snapshotting a thousand-request run costs
// (plus the completed records and IDs the exact path keeps, when the run
// is below the exact-metrics threshold).
type Snapshot struct {
	s *server
}

// Snapshot freezes the loop's current state. It fails on a finalized or
// errored loop.
//
// Determinism contract, pinned by TestForkDeterminism: a fork driven
// through the same Inject/Advance sequence as the original produces a
// bit-identical Result — fork-then-advance ≡ straight-line advance.
func (l *Loop) Snapshot() (*Snapshot, error) {
	if l.finalized {
		return nil, fmt.Errorf("serve: cannot snapshot a finalized loop")
	}
	if l.err != nil {
		return nil, fmt.Errorf("serve: cannot snapshot a failed loop: %w", l.err)
	}
	s := l.s.clone(nil)
	// The frozen copy must not retain the live loop's observer: events
	// belong to continuations, which attach their own through Fork.
	s.cfg.Observer = nil
	return &Snapshot{s: s}, nil
}

// Fork builds a live Loop resuming from the snapshot, with obs (which may
// be nil) as its observer. Each call clones the snapshot's state again,
// so forks are fully independent of each other and of the snapshot.
func (sn *Snapshot) Fork(obs events.Observer) *Loop {
	return &Loop{s: *sn.s.clone(obs)}
}

// Fork is the one-shot convenience: Snapshot then Fork, for callers that
// want a single divergent continuation rather than a reusable branch
// point.
func (l *Loop) Fork(obs events.Observer) (*Loop, error) {
	sn, err := l.Snapshot()
	if err != nil {
		return nil, err
	}
	return sn.Fork(obs), nil
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
