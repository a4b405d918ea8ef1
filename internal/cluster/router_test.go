package cluster

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestRouterRegistry pins the policy table: exactly the five shipped
// policies, resolvable by name, with unknown names rejected.
func TestRouterRegistry(t *testing.T) {
	names := Routers()
	if want := []string{"affinity", "least-kv", "least-outstanding", "prefix-affinity", "round-robin"}; !slices.Equal(names, want) {
		t.Fatalf("routers %v, want %v", names, want)
	}
	for _, want := range names {
		r, err := RouterByName(want)
		if err != nil {
			t.Fatalf("RouterByName(%q): %v", want, err)
		}
		if r.Name() != want {
			t.Fatalf("router %q reports name %q", want, r.Name())
		}
	}
	if _, err := RouterByName("no-such-policy"); err == nil {
		t.Fatal("unknown router name resolved")
	}
}

func views(t *testing.T, n int) []ReplicaView {
	t.Helper()
	v := make([]ReplicaView, n)
	for i := range v {
		v[i] = ReplicaView{ID: i, GPUCapacity: 1 << 30, GPUHeadroom: 1 << 29}
	}
	return v
}

// TestRoundRobinCycles pins the dispatch-counter rotation, including its
// behaviour when the fleet grows between picks: the cursor counts
// dispatches, so a resize re-phases but never panics or starves.
func TestRoundRobinCycles(t *testing.T) {
	r, _ := RouterByName("round-robin")
	v := views(t, 3)
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, r.Pick(workload.Request{ID: i}, v))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick sequence %v, want %v", got, want)
		}
	}
	// Shrink to one replica: every pick must stay in range.
	one := views(t, 1)
	for i := 0; i < 3; i++ {
		if p := r.Pick(workload.Request{ID: i}, one); p != 0 {
			t.Fatalf("pick %d on one-replica fleet", p)
		}
	}
}

// TestLeastOutstanding pins queue-depth balancing with the
// lowest-ID tie-break.
func TestLeastOutstanding(t *testing.T) {
	r, _ := RouterByName("least-outstanding")
	v := views(t, 3)
	v[0].Pending, v[0].Active = 2, 2
	v[1].Pending, v[1].Active = 1, 1
	v[2].Pending, v[2].Active = 3, 0
	if p := r.Pick(workload.Request{}, v); p != 1 {
		t.Fatalf("picked %d, want 1 (2 outstanding)", p)
	}
	v[1].Pending = 3 // now 0 and 1 tie at 4; 2 has 3
	if p := r.Pick(workload.Request{}, v); p != 2 {
		t.Fatalf("picked %d, want 2", p)
	}
	v[2].Pending = 4 // all tie at 4 → lowest ID
	if p := r.Pick(workload.Request{}, v); p != 0 {
		t.Fatalf("tie broke to %d, want 0", p)
	}
}

// TestLeastKVUsesFraction pins the heterogeneous-fleet property: the
// free *fraction* ranks replicas, so a half-empty small card beats a
// nearly-full big card that has more absolute bytes free.
func TestLeastKVUsesFraction(t *testing.T) {
	r, _ := RouterByName("least-kv")
	v := []ReplicaView{
		{ID: 0, GPUCapacity: 80 << 30, GPUHeadroom: 8 << 30}, // 10% free, 8 GiB
		{ID: 1, GPUCapacity: 16 << 30, GPUHeadroom: 8 << 30}, // 50% free, 8 GiB
		{ID: 2, GPUCapacity: 16 << 30, GPUHeadroom: 4 << 30}, // 25% free
	}
	if p := r.Pick(workload.Request{}, v); p != 1 {
		t.Fatalf("picked %d, want 1 (largest free fraction)", p)
	}
	// Equal fractions tie to the lowest ID.
	v[0].GPUHeadroom = 40 << 30 // 50%
	if p := r.Pick(workload.Request{}, v); p != 0 {
		t.Fatalf("tie broke to %d, want 0", p)
	}
}

// TestAffinityStickyAndStable pins the two rendezvous-hashing
// properties the policy exists for: the same key always lands on the
// same live replica, and a fleet resize moves only the keys whose
// winner actually changed — most assignments survive.
func TestAffinityStickyAndStable(t *testing.T) {
	r, _ := RouterByName("affinity")
	v3 := views(t, 3)
	const keys = 256
	before := make([]int, keys)
	for k := 0; k < keys; k++ {
		p := r.Pick(workload.Request{ID: k}, v3)
		before[k] = v3[p].ID
		if again := r.Pick(workload.Request{ID: k}, v3); v3[again].ID != before[k] {
			t.Fatalf("key %d not sticky: %d then %d", k, before[k], v3[again].ID)
		}
	}
	// Every replica should own a reasonable share.
	share := make(map[int]int)
	for _, id := range before {
		share[id]++
	}
	for id, n := range share {
		if n < keys/10 {
			t.Fatalf("replica %d owns only %d/%d keys — hash badly skewed", id, n, keys)
		}
	}
	// Add a fourth replica: keys either stay put or move to the new one;
	// no key may shuffle between surviving replicas.
	v4 := views(t, 4)
	moved := 0
	for k := 0; k < keys; k++ {
		id := v4[r.Pick(workload.Request{ID: k}, v4)].ID
		if id != before[k] {
			if id != 3 {
				t.Fatalf("key %d reshuffled from %d to surviving replica %d", k, before[k], id)
			}
			moved++
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d/%d keys moved to the new replica, want roughly 1/4", moved, keys)
	}
}
