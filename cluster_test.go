package alisa

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// clusterEngine compiles the suite's fleet engine: the paper's
// sparse/INT8 alisa setting with a small batch cap.
func clusterEngine(t *testing.T, extra ...Option) *Engine {
	t.Helper()
	opts := append([]Option{WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(4)}, extra...)
	eng, err := New("opt-6.7b", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestServeClusterAcrossRouters replays one trace across every
// registered policy through the public API: all requests complete, and
// the result carries the per-replica and fleet-level views.
func TestServeClusterAcrossRouters(t *testing.T) {
	eng := clusterEngine(t)
	tr := PoissonTrace(36, 6, 5)
	if len(ClusterRouters()) < 4 {
		t.Fatalf("routers %v, want at least 4", ClusterRouters())
	}
	for _, router := range ClusterRouters() {
		res, err := eng.ServeCluster(context.Background(), ClusterSpec{Replicas: 3, Router: router}, tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if res.Completed != len(tr) {
			t.Fatalf("%s: completed %d of %d", router, res.Completed, len(tr))
		}
		if len(res.Replicas) != 3 {
			t.Fatalf("%s: %d replica results, want 3", router, len(res.Replicas))
		}
		if res.Window.Count == 0 {
			t.Fatalf("%s: empty fleet window", router)
		}
	}
}

// TestServeClusterDeterministic pins the public determinism contract:
// repeated ServeCluster calls with the same (trace, spec) produce
// bit-identical fingerprints.
func TestServeClusterDeterministic(t *testing.T) {
	eng := clusterEngine(t)
	tr := PoissonTrace(32, 7, 9)
	spec := ClusterSpec{Replicas: 2, Router: "least-outstanding"}
	a, err := eng.ServeCluster(context.Background(), spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.ServeCluster(context.Background(), spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two identical cluster runs diverged")
	}
}

// TestOpenClusterInteractive drives the Session-mirroring surface by
// hand: Push future arrivals, Advance to idle, inspect Snapshot and
// Status, Close for the final result — and verify closed-fleet
// transitions fail.
func TestOpenClusterInteractive(t *testing.T) {
	eng := clusterEngine(t)
	c, err := eng.OpenCluster(context.Background(), ClusterSpec{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 || c.Pending() != 0 || c.InFlight() != 0 {
		t.Fatalf("idle fleet: size %d pending %d inflight %d", c.Size(), c.Pending(), c.InFlight())
	}
	for _, r := range UniformTrace(6, 0.4, 64, 16) {
		if err := c.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	for {
		progressed, err := c.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if snap := c.Snapshot(); snap.Count != 6 {
		t.Fatalf("fleet window count %d, want 6", snap.Count)
	}
	status := c.Status()
	if len(status) != 2 {
		t.Fatalf("%d status entries, want 2", len(status))
	}
	perReplica := 0
	for _, st := range status {
		perReplica += st.Window.Count
	}
	if perReplica != 6 {
		t.Fatalf("per-replica windows hold %d, want 6", perReplica)
	}
	if c.Frontier() <= 0 {
		t.Fatalf("frontier %v after serving work", c.Frontier())
	}
	res, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d of 6", res.Completed)
	}
	// Idempotent close, dead transitions.
	res2, err2 := c.Close()
	if err2 != nil || res2 != res {
		t.Fatal("Close not idempotent")
	}
	if err := c.Push(Request{ID: 99, Arrival: 0, Input: 8, Output: 4}); err == nil {
		t.Fatal("push accepted on closed fleet")
	}
	if _, err := c.Advance(); err == nil {
		t.Fatal("advance accepted on closed fleet")
	}
}

// TestClusterHeterogeneousProfiles pins the Profiles cycling rule:
// alternating tier names shape a mixed fleet through the public spec.
func TestClusterHeterogeneousProfiles(t *testing.T) {
	eng := clusterEngine(t)
	res, err := eng.ServeCluster(context.Background(),
		ClusterSpec{Replicas: 3, Profiles: []string{"V100-16GB", "V100-32GB"}},
		PoissonTrace(24, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	tiers := []string{res.Replicas[0].Tier, res.Replicas[1].Tier, res.Replicas[2].Tier}
	want := []string{"V100-16GB", "V100-32GB", "V100-16GB"}
	for i := range want {
		if tiers[i] != want[i] {
			t.Fatalf("tiers %v, want %v", tiers, want)
		}
	}
}

// TestClusterAutoscalePublic runs the autoscaler through the public
// spec: an unmeetable SLO forces growth to Max.
func TestClusterAutoscalePublic(t *testing.T) {
	eng := clusterEngine(t, WithSLO(1e-9, 0.5))
	res, err := eng.ServeCluster(context.Background(),
		ClusterSpec{
			Replicas:  1,
			Autoscale: &ClusterAutoscale{Min: 1, Max: 3, SLOTarget: 0.9, MinObs: 4},
		},
		PoissonTrace(40, 10, 21))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 || res.PeakReplicas != 3 {
		t.Fatalf("scaleups %d peak %d, want growth to 3", res.ScaleUps, res.PeakReplicas)
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
}

// TestClusterValidationErrors sweeps the public fleet validation: every
// bad spec must fail with a ConfigError naming the offending field.
func TestClusterValidationErrors(t *testing.T) {
	eng := clusterEngine(t)
	ctx := context.Background()
	cases := []struct {
		name  string
		spec  ClusterSpec
		field string
	}{
		{"zero replicas", ClusterSpec{Replicas: 0}, "Replicas"},
		{"negative replicas", ClusterSpec{Replicas: -2}, "Replicas"},
		{"unknown router", ClusterSpec{Replicas: 1, Router: "nope"}, "Router"},
		{"unknown profile", ClusterSpec{Replicas: 1, Profiles: []string{"TPU-v9"}}, "Profile"},
		{"bad autoscale", ClusterSpec{Replicas: 1, Autoscale: &ClusterAutoscale{Min: 0, Max: 2}}, "Autoscale"},
	}
	known := map[string]string{
		"unknown router":  "(known: affinity, least-kv, least-outstanding, prefix-affinity, round-robin)",
		"unknown profile": "(known: H100-80GB, V100-16GB, V100-32GB)",
	}
	for _, tc := range cases {
		_, err := eng.OpenCluster(ctx, tc.spec)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Fatalf("%s: err %v, want ConfigError on %s", tc.name, err, tc.field)
		}
		if !strings.HasSuffix(err.Error(), known[tc.name]) {
			t.Fatalf("%s: err %q does not end with %q", tc.name, err, known[tc.name])
		}
		if _, err := eng.ServeCluster(ctx, tc.spec, PoissonTrace(4, 5, 1)); err == nil {
			t.Fatalf("%s: ServeCluster accepted bad spec", tc.name)
		}
	}
	if _, err := eng.ServeCluster(ctx, ClusterSpec{Replicas: 1}, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestClusterObserverDelivery checks the engine's compiled Observer
// hears every replica's completions through the fleet tap chain.
func TestClusterObserverDelivery(t *testing.T) {
	done := 0
	eng := clusterEngine(t, WithObserver(Observer{Completion: func(CompletionEvent) { done++ }}))
	res, err := eng.ServeCluster(context.Background(), ClusterSpec{Replicas: 2}, PoissonTrace(12, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if done != res.Completed || done != 12 {
		t.Fatalf("observer saw %d completions, result has %d, want 12", done, res.Completed)
	}
}

// TestClusterCancellation mirrors the Session cancellation contract at
// fleet level through the public API.
func TestClusterCancellation(t *testing.T) {
	eng := clusterEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.ServeCluster(ctx, ClusterSpec{Replicas: 2}, PoissonTrace(8, 5, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled fleet returned no partial result")
	}
}
