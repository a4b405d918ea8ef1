package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
)

// replicaConfig is the suite's per-replica serving configuration: the
// paper's sparse/INT8 alisa setting on a V100-16G, small batch cap so
// modest traces still exercise queueing and routing pressure.
func replicaConfig() serve.Config {
	return serve.Config{
		Model:      model.MustByName("opt-6.7b"),
		Profile:    memsim.V100_16G(),
		Scheduler:  "alisa",
		KVSparsity: 0.8,
		KVBits:     8,
		MaxBatch:   4,
	}
}

// fingerprintDigest is the SHA-256 prefix of a fleet Result's
// fingerprint, so a test can pin a run across commits.
func fingerprintDigest(res *Result) string {
	h := sha256.Sum256([]byte(res.Fingerprint()))
	return hex.EncodeToString(h[:])[:16]
}

func fleetConfig(n int, router string) Config {
	cfg := Config{Router: router}
	for i := 0; i < n; i++ {
		cfg.Replicas = append(cfg.Replicas, replicaConfig())
	}
	return cfg
}

// TestReplayCompletesAllPolicies drives one trace through every
// registered routing policy: every request must complete exactly once,
// routed counts must account for the whole trace, and the fleet window
// must have observed completions.
func TestReplayCompletesAllPolicies(t *testing.T) {
	tr := workload.PoissonTrace(40, 6, 11)
	for _, router := range Routers() {
		res, err := Replay(context.Background(), fleetConfig(3, router), tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if res.Completed != len(tr) || res.Pushed != len(tr) {
			t.Fatalf("%s: completed %d pushed %d of %d", router, res.Completed, res.Pushed, len(tr))
		}
		routed := 0
		for _, rep := range res.Replicas {
			routed += rep.Routed
			if rep.Routed != rep.Completed {
				t.Fatalf("%s: replica %d routed %d but completed %d", router, rep.ID, rep.Routed, rep.Completed)
			}
		}
		if routed != len(tr) {
			t.Fatalf("%s: routed %d of %d", router, routed, len(tr))
		}
		if res.Window.Count == 0 {
			t.Fatalf("%s: fleet window never observed a completion", router)
		}
		if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
			t.Fatalf("%s: SLO attainment %v out of range", router, res.SLOAttainment)
		}
		if res.Throughput <= 0 || res.Makespan <= 0 {
			t.Fatalf("%s: degenerate aggregates: tput %v makespan %v", router, res.Throughput, res.Makespan)
		}
	}
}

// TestSingleReplicaMatchesLoop pins the base case of the fleet layer: a
// one-replica cluster replaying a trace must be bit-identical to a bare
// serve.Loop driven with the same dispatch rule (push a request at the
// first turn boundary at-or-after its arrival — Replay's front-end
// model), so routing, windows, and the roll-up add zero perturbation to
// the simulation itself.
func TestSingleReplicaMatchesLoop(t *testing.T) {
	tr := workload.PoissonTrace(32, 5, 7)
	ctx := context.Background()

	l, err := serve.NewLoop(replicaConfig())
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for {
		if next < len(tr) && (tr[next].Arrival <= l.Clock() || (l.Pending() == 0 && l.Active() == 0)) {
			if err := l.Inject(tr[next]); err != nil {
				t.Fatal(err)
			}
			next++
			continue
		}
		progressed, err := l.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !progressed && next >= len(tr) {
			break
		}
	}
	if err := l.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	direct := l.Finalize()

	res, err := Replay(ctx, fleetConfig(1, "round-robin"), tr)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Replicas[0].Serve
	if got.Makespan != direct.Makespan || got.Throughput != direct.Throughput ||
		got.Goodput != direct.Goodput || got.SLOAttainment != direct.SLOAttainment ||
		got.Preemptions != direct.Preemptions || got.MeanBatch != direct.MeanBatch {
		t.Fatalf("aggregates diverged from the bare loop:\n cluster %+v\n direct  %+v", got, direct)
	}
	if len(got.Requests) != len(direct.Requests) {
		t.Fatalf("record count %d vs %d", len(got.Requests), len(direct.Requests))
	}
	for i := range got.Requests {
		if got.Requests[i] != direct.Requests[i] {
			t.Fatalf("record %d diverged:\n cluster %s\n direct  %s", i, got.Requests[i], direct.Requests[i])
		}
	}
}

// TestReplayDeterministicAndParallel is the fleet determinism contract:
// the same (seed, fleet config) replayed serially twice and again inside
// a parallel grid (GOMAXPROCS pinned at 4, the -race CI shape) must
// produce bit-identical fingerprints for every routing policy.
func TestReplayDeterministicAndParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	tr := workload.PoissonTrace(48, 8, 13)
	routers := Routers()
	serial := make([]string, len(routers))
	for i, router := range routers {
		res, err := Replay(context.Background(), fleetConfig(3, router), tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		serial[i] = res.Fingerprint()
	}

	again := make([]string, len(routers))
	for i, router := range routers {
		res, err := Replay(context.Background(), fleetConfig(3, router), tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		again[i] = res.Fingerprint()
	}

	parallel := make([]string, len(routers))
	errs := make([]error, len(routers))
	_ = grid.Run(context.Background(), len(routers), 4, func(ctx context.Context, i int) {
		res, err := Replay(ctx, fleetConfig(3, routers[i]), tr)
		if err != nil {
			errs[i] = err
			return
		}
		parallel[i] = res.Fingerprint()
	})
	for i, router := range routers {
		if errs[i] != nil {
			t.Fatalf("%s (parallel): %v", router, errs[i])
		}
		if serial[i] != again[i] {
			t.Fatalf("%s: two serial replays diverged", router)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("%s: parallel replay diverged from serial", router)
		}
	}
}

// TestHeterogeneousFleet mixes V100-16G and V100-32G tiers: round-robin
// must spread traffic across both tiers, while the KV-pressure policy
// must recognise the bigger card's much larger free-KV fraction and
// send it the majority of the load — the routing signal heterogeneity
// exists for. Both runs must complete the full trace.
func TestHeterogeneousFleet(t *testing.T) {
	tr := workload.PoissonTrace(48, 8, 17)
	mixed := func(router string) Config {
		small := replicaConfig()
		big := replicaConfig()
		big.Profile = memsim.V100_32G()
		return Config{Router: router, Replicas: []serve.Config{small, big}}
	}
	routedByTier := func(router string) map[string]int {
		res, err := Replay(context.Background(), mixed(router), tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if res.Completed != len(tr) {
			t.Fatalf("%s: completed %d of %d", router, res.Completed, len(tr))
		}
		tiers := map[string]int{}
		for _, rep := range res.Replicas {
			tiers[rep.Tier] += rep.Routed
		}
		return tiers
	}

	rr := routedByTier("round-robin")
	if rr["V100-16GB"] != len(tr)/2 || rr["V100-32GB"] != len(tr)/2 {
		t.Fatalf("round-robin split %v, want even halves", rr)
	}
	kv := routedByTier("least-kv")
	if kv["V100-32GB"] <= kv["V100-16GB"] {
		t.Fatalf("least-kv split %v: the 32G tier's larger free fraction should attract the majority", kv)
	}
}

// TestAutoscaleUp pins the scale-up trigger: an unmeetable SLO drives
// windowed attainment to zero, so the fleet must grow from its initial
// size toward Max, adding replicas that then serve traffic. The run's
// fingerprint digest is pinned across commits.
func TestAutoscaleUp(t *testing.T) {
	rc := replicaConfig()
	rc.SLOTTFT = 1e-9 // nothing can meet it: attainment pins at 0
	cfg := Config{
		Router:   "least-outstanding",
		Replicas: []serve.Config{rc},
		Autoscale: &Autoscale{
			Min: 1, Max: 3,
			SLOTarget: 0.9,
			MinObs:    4,
		},
	}
	res, err := Replay(context.Background(), cfg, workload.PoissonTrace(48, 10, 19))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 {
		t.Fatal("fleet never scaled up despite 0% windowed attainment")
	}
	if res.PeakReplicas != 3 {
		t.Fatalf("peak fleet size %d, want 3 (Max)", res.PeakReplicas)
	}
	forkedServed := 0
	for _, rep := range res.Replicas {
		if rep.Forked {
			forkedServed += rep.Completed
		}
	}
	if forkedServed == 0 {
		t.Fatal("autoscaler-added replicas never served a request")
	}
	if res.Completed != 48 {
		t.Fatalf("completed %d of 48", res.Completed)
	}
	if got, want := fingerprintDigest(res), "7edbf02b2b5b6b81"; got != want {
		t.Fatalf("fingerprint digest %s, want %s", got, want)
	}
}

// TestAutoscaleDown pins the scale-down trigger: after a burst drains
// and the trace goes quiet, the replica left idle past IdleAfter is
// retired — and its completions still count in the final roll-up. The
// run's fingerprint digest is pinned across commits.
func TestAutoscaleDown(t *testing.T) {
	cfg := Config{
		Router:   "round-robin",
		Replicas: []serve.Config{replicaConfig(), replicaConfig()},
		Autoscale: &Autoscale{
			Min: 1, Max: 2,
			IdleAfter: 5,
		},
	}
	// A burst at the start, then one straggler far in the future: the
	// clock jump to the straggler exposes the other replica's idle span.
	tr := workload.UniformTrace(8, 0.25, 96, 48)
	tr = append(tr, workload.Request{ID: 8, Arrival: 1000, Input: 64, Output: 16})
	res, err := Replay(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleDowns == 0 {
		t.Fatal("fleet never scaled down despite a >5s idle replica")
	}
	if res.Completed != len(tr) {
		t.Fatalf("completed %d of %d — a retired replica lost completions", res.Completed, len(tr))
	}
	retired := 0
	for _, rep := range res.Replicas {
		if rep.Retired {
			retired++
			if rep.Completed == 0 {
				t.Fatal("retired replica reported no completions despite serving the burst")
			}
		}
	}
	if retired == 0 {
		t.Fatal("ScaleDowns counted but no replica marked retired")
	}
	if got, want := fingerprintDigest(res), "f4c5111d466428e5"; got != want {
		t.Fatalf("fingerprint digest %s, want %s", got, want)
	}
}

// TestReplayCancellation mirrors the serve/session cancellation
// contract at fleet level: a cancelled context yields the partial
// result alongside a cancellation-classified error.
func TestReplayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Replay(ctx, fleetConfig(2, "round-robin"), workload.PoissonTrace(16, 5, 3))
	if err == nil || !serve.IsCancellation(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if res == nil {
		t.Fatal("cancelled fleet must return the partial result")
	}
}

// TestClusterValidation sweeps the fleet-level config errors.
func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(Config{Replicas: []serve.Config{replicaConfig()}, Router: "nope"}); err == nil {
		t.Fatal("unknown router accepted")
	}
	if _, err := New(Config{Replicas: []serve.Config{replicaConfig()}, Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	bad := []Autoscale{
		{Min: 0, Max: 2},
		{Min: 2, Max: 1},
		{Min: 2, Max: 4}, // Min above initial size 1
		{Min: 1, Max: 2, SLOTarget: 1.5},
		{Min: 1, Max: 2, IdleAfter: -1},
		{Min: 1, Max: 2, MinObs: -1},
	}
	for i, as := range bad {
		a := as
		if _, err := New(Config{Replicas: []serve.Config{replicaConfig()}, Autoscale: &a}); err == nil {
			t.Fatalf("bad autoscale %d (%+v) accepted", i, as)
		}
	}
	// Closed-fleet transitions fail.
	c, err := New(fleetConfig(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(workload.Request{ID: 1, Arrival: 0, Input: 8, Output: 4}); err == nil {
		t.Fatal("push on closed fleet accepted")
	}
	if _, err := c.Advance(context.Background()); err == nil {
		t.Fatal("advance on closed fleet accepted")
	}
}

// TestRefusedPushLeavesFleetUnchanged pins that a request Push refuses
// returns its error without failing the fleet: later pushes and turns
// carry on, the round-robin cursor stays put, and the run is
// bit-identical to the same fleet never offered the bad requests.
func TestRefusedPushLeavesFleetUnchanged(t *testing.T) {
	ctx := context.Background()
	tr := workload.PoissonTrace(24, 6, 13)
	bad := map[int]workload.Request{
		3:  {ID: 100, Arrival: 0, Input: 0, Output: 4},
		7:  {ID: 101, Arrival: -1, Input: 8, Output: 4},
		13: {ID: 102, Arrival: 0, Input: 2000, Output: 100}, // over opt-6.7b's 2048
		19: {ID: 103, Arrival: 0, Input: 8, Output: 4, Tokens: []int{1, 2}},
	}
	run := func(bad map[int]workload.Request) string {
		t.Helper()
		c, err := New(fleetConfig(3, "round-robin"))
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range tr {
			if b, ok := bad[i]; ok {
				if err := c.Push(b); err == nil {
					t.Fatalf("invalid request %+v accepted", b)
				}
			}
			for req.Arrival > c.Frontier() && !c.Idle() {
				if _, err := c.Advance(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Push(req); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
		}
		res, err := c.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(tr) || res.Pushed != len(tr) {
			t.Fatalf("completed %d pushed %d of %d", res.Completed, res.Pushed, len(tr))
		}
		return res.Fingerprint()
	}
	if got, want := run(bad), run(nil); got != want {
		t.Fatalf("refused pushes changed the run:\n got %s\nwant %s", got, want)
	}

	// A duplicate ID is refused by the replica it was routed to, after
	// routing; that too leaves the fleet serving.
	c, err := New(fleetConfig(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	req := workload.Request{ID: 0, Arrival: 0, Input: 8, Output: 4}
	if err := c.Push(req); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(req); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if res, err := c.Close(ctx); err != nil || res.Completed != 1 {
		t.Fatalf("Close after a refused duplicate: %v (result %v)", err, res)
	}
}

// TestStatusSurfacesFleetState drives a few requests by hand —
// Push/Advance, the Session-like interactive surface — and checks the
// per-replica status and fleet snapshot stay coherent.
func TestStatusSurfacesFleetState(t *testing.T) {
	c, err := New(fleetConfig(2, "round-robin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range workload.UniformTrace(6, 0.3, 64, 16) {
		if err := c.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	for {
		progressed, err := c.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if got := c.Snapshot(); got.Count != 6 {
		t.Fatalf("fleet window count %d, want 6", got.Count)
	}
	status := c.Status()
	if len(status) != 2 {
		t.Fatalf("status entries %d, want 2", len(status))
	}
	total := 0
	for _, st := range status {
		total += st.Window.Count
	}
	if total != 6 {
		t.Fatalf("per-replica windows hold %d completions, want 6", total)
	}
	if res, err := c.Close(context.Background()); err != nil || res.Completed != 6 {
		t.Fatalf("close: %v completed %d", err, res.Completed)
	}
}
