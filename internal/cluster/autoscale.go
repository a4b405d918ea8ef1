package cluster

import (
	"context"
	"fmt"
)

// Autoscale is the fleet's capacity policy, driven entirely by the
// simulation's own signals so scaling decisions are deterministic in
// (seed, config):
//
//   - Scale up when the fleet's rolling window holds at least MinObs
//     completions and its windowed SLO attainment drops below SLOTarget —
//     the load has outrun the fleet. The new replica is a fresh loop
//     built from replica 0's config and gets a fresh, never-reused ID
//     (affinity hashing stays stable).
//   - Scale down when a replica has been idle — no queued or in-flight
//     work — for more than IdleAfter simulated seconds of fleet
//     frontier time. The retired replica is finalized immediately; its
//     completions stay in the fleet roll-up.
//
// Both directions respect the [Min, Max] size bounds, and the policy
// takes at most one action per fleet turn.
type Autoscale struct {
	// Min and Max bound the live fleet size. Min must be ≥ 1 and ≤ the
	// initial replica count; Max must be ≥ Min.
	Min, Max int
	// SLOTarget is the windowed SLO-attainment floor in [0, 1]; windowed
	// attainment below it triggers a scale-up.
	SLOTarget float64
	// MinObs is how many completions the fleet window needs before
	// attainment is trusted (0 → 8): scaling on one slow request is
	// noise, not signal.
	MinObs int
	// IdleAfter is the sustained-idle span, in simulated seconds, after
	// which a replica beyond Min is retired. 0 disables scale-down.
	IdleAfter float64
}

// validate reports the first invalid autoscale field. n is the initial
// fleet size.
func (a Autoscale) validate(n int) error {
	switch {
	case a.Min < 1:
		return fmt.Errorf("cluster: autoscale Min must be >= 1, got %d", a.Min)
	case a.Max < a.Min:
		return fmt.Errorf("cluster: autoscale Max %d below Min %d", a.Max, a.Min)
	case a.Min > n:
		return fmt.Errorf("cluster: autoscale Min %d above initial fleet size %d", a.Min, n)
	case a.SLOTarget < 0 || a.SLOTarget > 1:
		return fmt.Errorf("cluster: autoscale SLOTarget must be in [0,1], got %v", a.SLOTarget)
	case a.MinObs < 0:
		return fmt.Errorf("cluster: autoscale MinObs must be >= 0, got %d", a.MinObs)
	case a.IdleAfter < 0:
		return fmt.Errorf("cluster: autoscale IdleAfter must be >= 0 seconds, got %v", a.IdleAfter)
	}
	return nil
}

// minObs applies the MinObs default.
func (a Autoscale) minObs() int {
	if a.MinObs == 0 {
		return 8
	}
	return a.MinObs
}

// autoscaleStep gives the policy one look after a fleet turn: at most
// one scale action per turn, scale-down considered first (reclaiming an
// idle replica can never hurt attainment the way skipping a needed
// scale-up can — and a fleet both idle-heavy and SLO-starved should
// rebalance, not thrash).
func (c *Cluster) autoscaleStep(ctx context.Context) error {
	as := c.cfg.Autoscale
	if as == nil {
		return nil
	}
	// The frontier falls back when a replica with an older clock takes
	// new work; act again only once it has caught up with the last action.
	f := c.Frontier()
	if f < c.lastScale {
		return nil
	}

	if as.IdleAfter > 0 && c.Size() > as.Min {
		for _, r := range c.replicas {
			if r.retired || r.busy() {
				continue
			}
			if f-r.lastBusy > as.IdleAfter {
				if err := c.retire(ctx, r); err != nil {
					return err
				}
				c.lastScale = f
				return nil
			}
		}
	}

	if c.Size() < as.Max {
		snap := c.window.Snapshot()
		if snap.Count >= as.minObs() && snap.SLOAttainment < as.SLOTarget {
			if _, err := c.addReplica(c.cfg.Replicas[0], true); err != nil {
				return fmt.Errorf("cluster: scale-up: %w", err)
			}
			c.scaleUps++
			if n := c.Size(); n > c.peakReplicas {
				c.peakReplicas = n
			}
			c.lastScale = f
		}
	}
	return nil
}

// retire drains (running serve's KV-leak check — the replica is idle, so
// this is one no-op turn), finalizes, and removes an idle replica from
// routing. Its completions remain in every window and in the final
// roll-up.
func (c *Cluster) retire(ctx context.Context, r *replica) error {
	if err := r.loop.Drain(ctx); err != nil {
		return err
	}
	r.retired = true
	r.result = r.loop.Finalize()
	c.scaleDowns++
	return nil
}
