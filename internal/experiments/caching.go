package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attention"
	"repro/internal/cachepolicy"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/textfmt"
)

// CachingRow is one (capacity, policy) miss-rate measurement.
type CachingRow struct {
	Capacity int
	Policy   string
	Misses   int
	Requests int
	MissRate float64
}

// CachingResult quantifies the §III-B caching-policy discussion: Belady's
// clairvoyant optimum versus classical LRU/FIFO versus ALISA's
// window-plus-recent-score heuristic, replayed over a real SWA request
// trace at several GPU capacities.
type CachingResult struct {
	Steps int
	Rows  []CachingRow
}

// AblationCaching replays a 512-step SWA trace at three capacities spanning
// the regimes: below the attended set (misses are structural and policy-
// independent), just above it (the discriminative band), and ample.
func AblationCaching() (*CachingResult, error) {
	const steps = 512
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 77)
	spec.Layers = 1
	spec.HitterLifetime = 24
	tr := cachepolicy.TraceFromPolicy(spec, attention.MustByName("swa", 0.2, 1), steps)

	maxReq := 0
	for _, req := range tr.Requests {
		if len(req) > maxReq {
			maxReq = len(req)
		}
	}

	res := &CachingResult{Steps: steps}
	for _, capacity := range []int{maxReq / 2, maxReq + 8, maxReq + 64} {
		policies := []cachepolicy.Policy{
			cachepolicy.FIFO(),
			cachepolicy.LRU(),
			cachepolicy.AlisaHeuristic(capacity/3, 64),
			cachepolicy.Belady(),
		}
		for _, p := range policies {
			r := cachepolicy.Replay(tr, capacity, p)
			res.Rows = append(res.Rows, CachingRow{
				Capacity: capacity,
				Policy:   r.Policy,
				Misses:   r.Misses,
				Requests: r.Requests,
				MissRate: r.MissRate(),
			})
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *CachingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — KV caching policies on a %d-step SWA request trace (§III-B)\n", r.Steps)
	b.WriteString("belady is the clairvoyant lower bound the paper rules out as impractical\n\n")
	tb := textfmt.NewTable("GPU capacity (tokens)", "policy", "misses", "requests", "miss rate")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprint(row.Capacity), row.Policy,
			fmt.Sprint(row.Misses), fmt.Sprint(row.Requests),
			fmt.Sprintf("%.1f%%", row.MissRate*100))
	}
	b.WriteString(tb.String())
	b.WriteString("\nSWA's request stream is sticky (the selected set drifts slowly), so a\n")
	b.WriteString("protected local window plus any recency signal is near-oracle — the\n")
	b.WriteString("empirical case for the paper's cheap heuristic over Belady.\n")
	return b.String()
}
