package serve

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// TestLedgerTracksClock checks that the system's time ledger accounts for
// the serving clock, for every servable scheduler with the prefix cache
// off and on, on the exact and the scale-mode path, plus a run that
// preempts. Every request arrives within nanoseconds of the first, so
// after the idle jump to the first arrival (charged to no category) the
// clock moves only through ledger charges, and the seven categories sum
// to the clock less the first arrival, up to the rounding of two float
// accumulators.
func TestLedgerTracksClock(t *testing.T) {
	const n = 60
	rag, err := workload.NewRAGTrace(n, 1e9, 2048, 5)
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		name string
		cfg  Config
	}
	var legs []leg
	for _, name := range servable {
		off := replayConfig(name)
		off.Trace = workload.PoissonTrace(n, 1e9, 5)
		for _, l := range []leg{{name + "/cache-off", off}, {name + "/cache-on", prefixConfig(name, rag)}} {
			scale := l
			scale.name += "/scale"
			scale.cfg.ExactMetrics = -1
			legs = append(legs, l, scale)
		}
	}
	preempt := preemptionConfig(8)
	preempt.Trace = workload.UniformTrace(8, 1e-9, 1024, 512)
	legs = append(legs, leg{"gpu-only/preemption", preempt})

	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg
			l, err := NewLoop(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := drainResult(t, l)
			if res.Completed != len(cfg.Trace) {
				t.Fatalf("completed %d of %d", res.Completed, len(cfg.Trace))
			}
			if leg.name == "gpu-only/preemption" && res.Preemptions == 0 {
				t.Fatal("the preemption leg never preempted")
			}
			first := cfg.Trace[0].Arrival
			for _, r := range cfg.Trace {
				first = math.Min(first, r.Arrival)
			}
			clock := l.Clock() - first
			var sum float64
			for _, v := range res.Breakdown {
				sum += v
			}
			if gap := math.Abs(sum - clock); !(clock > 0) || gap > 1e-9*clock {
				t.Errorf("ledger sums to %v s over a %v s clock (gap %g)", sum, clock, gap)
			}
		})
	}
}
