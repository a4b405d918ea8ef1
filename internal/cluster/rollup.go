package cluster

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// ReplicaResult is one fleet member's contribution to the final Result.
type ReplicaResult struct {
	ID   int
	Tier string
	// Routed is how many requests the router dispatched here; Completed
	// how many ran to completion (they differ only under cancellation).
	Routed    int
	Completed int
	// Forked marks replicas the autoscaler added at runtime; Retired
	// marks members the autoscaler removed before the fleet closed.
	Forked  bool
	Retired bool
	// Serve is the replica's full per-engine result — the same shape
	// serve.Run produces, per-request records included on the exact path.
	Serve *serve.Result
}

// Result is the fleet outcome: per-replica results plus the fleet-level
// aggregates the load curves report.
type Result struct {
	Router   string
	Replicas []ReplicaResult

	// Pushed and Completed count requests over the whole fleet.
	Pushed    int
	Completed int
	// Makespan is the fleet's end time: the maximum replica makespan
	// (replicas keep independent clocks started at zero).
	Makespan float64
	// Throughput and Goodput are fleet generated-token rates over the
	// fleet makespan — all completions, and SLO-meeting ones only. Token
	// counts come from the completion stream, so they are exact in both
	// metrics modes.
	Throughput float64
	Goodput    float64
	// SLOAttainment is the completion-weighted fleet SLO fraction.
	SLOAttainment float64

	// Window is the final fleet rolling-window digest — the online view
	// at close time.
	Window metrics.WindowSnapshot

	// ScaleUps, ScaleDowns, and PeakReplicas summarise autoscaler
	// activity; a fixed fleet reports 0, 0, and its size.
	ScaleUps     int
	ScaleDowns   int
	PeakReplicas int

	// Prefix-cache fleet aggregates, summed over replicas (each replica
	// keeps an independent cache; routing is the only sharing mechanism,
	// which is what the hit-rate-by-router sweeps measure). All zero when
	// the cache is off. Deliberately NOT rendered into Fingerprint: the
	// fingerprint format predates the cache and stays byte-stable.
	PrefillTokens      int64
	PrefixHits         int
	PrefixMisses       int
	PrefixCachedTokens int64
	// PrefixSharedBytes sums the replicas' peak cache residency.
	PrefixSharedBytes int64
}

// PrefixHitRate is the fleet prefix-cache hit rate over probed
// admissions, 0 before any probe.
func (r *Result) PrefixHitRate() float64 {
	if probes := r.PrefixHits + r.PrefixMisses; probes > 0 {
		return float64(r.PrefixHits) / float64(probes)
	}
	return 0
}

// rollup aggregates the finalized replicas into the fleet Result.
func (c *Cluster) rollup() *Result {
	res := &Result{
		Router:       c.router.Name(),
		Pushed:       c.pushed,
		Window:       c.window.Snapshot(),
		ScaleUps:     c.scaleUps,
		ScaleDowns:   c.scaleDowns,
		PeakReplicas: c.peakReplicas,
	}
	var tokens, goodTokens int64
	var sloMet int
	for _, r := range c.replicas {
		res.Replicas = append(res.Replicas, ReplicaResult{
			ID:        r.id,
			Tier:      r.tier,
			Routed:    r.routed,
			Completed: r.completed,
			Forked:    r.forked,
			Retired:   r.retired,
			Serve:     r.result,
		})
		res.Completed += r.completed
		tokens += r.tokens
		goodTokens += r.goodTokens
		sloMet += r.sloMet
		if r.result != nil {
			if r.result.Makespan > res.Makespan {
				res.Makespan = r.result.Makespan
			}
			res.PrefillTokens += r.result.PrefillTokens
			res.PrefixHits += r.result.PrefixHits
			res.PrefixMisses += r.result.PrefixMisses
			res.PrefixCachedTokens += r.result.PrefixCachedTokens
			res.PrefixSharedBytes += r.result.PrefixSharedBytes
		}
	}
	if res.Makespan > 0 {
		res.Throughput = float64(tokens) / res.Makespan
		res.Goodput = float64(goodTokens) / res.Makespan
	}
	if res.Completed > 0 {
		res.SLOAttainment = float64(sloMet) / float64(res.Completed)
	}
	return res
}

// Fingerprint renders the fleet result with full float precision —
// fleet aggregates, autoscaler trail, and every replica's metrics and
// per-request records — so the determinism suite can pin two runs
// bit-identical with one string compare.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router=%s pushed=%d completed=%d makespan=%.9f tput=%.9f goodput=%.9f slo=%.9f up=%d down=%d peak=%d\n",
		r.Router, r.Pushed, r.Completed, r.Makespan, r.Throughput, r.Goodput, r.SLOAttainment,
		r.ScaleUps, r.ScaleDowns, r.PeakReplicas)
	for _, rep := range r.Replicas {
		fmt.Fprintf(&b, "replica %d tier=%s routed=%d completed=%d forked=%t retired=%t",
			rep.ID, rep.Tier, rep.Routed, rep.Completed, rep.Forked, rep.Retired)
		if s := rep.Serve; s != nil {
			fmt.Fprintf(&b, " makespan=%.9f tput=%.9f goodput=%.9f slo=%.9f pre=%d meanbatch=%.9f peakgpu=%d",
				s.Makespan, s.Throughput, s.Goodput, s.SLOAttainment, s.Preemptions, s.MeanBatch, s.PeakGPU)
		}
		b.WriteByte('\n')
		if s := rep.Serve; s != nil {
			for _, rec := range s.Requests {
				b.WriteString("  ")
				b.WriteString(rec.String())
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}
