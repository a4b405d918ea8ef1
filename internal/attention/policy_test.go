package attention

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBudget(t *testing.T) {
	cases := []struct {
		n    int
		r    float64
		want int
	}{
		{0, 0.5, 0},
		{10, 0.5, 5},
		{10, 0.04, 1}, // floor would be 0; clamp to 1
		{10, 1.0, 10},
		{10, 2.0, 10}, // clamp to n
		{3, 0.5, 2},   // 1.5 rounds to 2
	}
	for _, c := range cases {
		if got := Budget(c.n, c.r); got != c.want {
			t.Errorf("Budget(%d, %v) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
}

func TestDenseSelectsEverything(t *testing.T) {
	p := MustByName("dense", 0, 1)
	got := p.Select(0, 5)
	if len(got) != 5 {
		t.Fatalf("dense selected %d of 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("dense indices = %v", got)
		}
	}
	if p.Select(0, 0) != nil {
		t.Fatal("empty cache should select nothing")
	}
}

func TestLocalKeepsMostRecent(t *testing.T) {
	p := MustByName("local", 0.4, 1)
	got := p.Select(0, 10)
	want := []int{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("local selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("local selected %v, want %v", got, want)
		}
	}
}

func TestStridedCoversWholeHistory(t *testing.T) {
	p := MustByName("strided", 0.25, 1)
	got := p.Select(0, 16)
	if len(got) != 4 {
		t.Fatalf("strided selected %d tokens, want 4: %v", len(got), got)
	}
	// Must include the most recent token and reach far back.
	if got[len(got)-1] != 15 {
		t.Fatalf("strided must include current-1 position: %v", got)
	}
	if got[0] > 4 {
		t.Fatalf("strided should reach early positions: %v", got)
	}
}

func TestSWAKMatchesAlgorithm1(t *testing.T) {
	p := MustByName("swa", 0.4, 1).(*swa)
	// k = ⌊n·r/2⌉ = ⌊10·0.4/2⌉ = 2
	if got := p.K(10); got != 2 {
		t.Fatalf("K(10) = %d, want 2", got)
	}
	// Clamp: 2k may not exceed n.
	if got := p.K(1); got != 1 {
		t.Fatalf("K(1) = %d, want 1 (n/2 clamp floor)", got)
	}
}

func TestSWAColdStartIsLocal(t *testing.T) {
	// Before any Observe, the global half has all-zero scores and must pick
	// deterministically (recency-biased), and the local half is the window.
	p := MustByName("swa", 0.4, 1)
	got := p.Select(0, 10)
	if len(got) != 4 {
		t.Fatalf("selected %v, want 4 tokens", got)
	}
	// Local window [8,9] must be present.
	if got[len(got)-1] != 9 || got[len(got)-2] != 8 {
		t.Fatalf("local window missing: %v", got)
	}
}

func TestSWATracksHeavyHitter(t *testing.T) {
	// Feed attention rows where position 2 consistently dominates; SWA's
	// global half must select it even when it is far outside the window.
	p := MustByName("swa", 0.2, 1)
	n := 40
	for step := 10; step < n; step++ {
		idx := []int{2, step - 2, step - 1, step}
		w := []float64{0.7, 0.1, 0.1, 0.1}
		p.Observe(0, idx, w)
	}
	sel := p.Select(0, n)
	found := false
	for _, i := range sel {
		if i == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("SWA failed to keep heavy hitter 2: %v", sel)
	}
}

func TestSWALocalSumForgetsStaleHitters(t *testing.T) {
	// A token that was heavy long ago but silent within the last k steps
	// must lose to a recently heavy token — the local vs. global sum
	// distinction between SWA and H2O.
	sw := MustByName("swa", 0.2, 1).(*swa)
	hh := MustByName("h2o", 0.2, 1)
	n := 100
	k := sw.K(n) // window of recent steps that count
	for step := 10; step < n; step++ {
		var idx []int
		var w []float64
		if step < n-3*k {
			idx = []int{3, step} // position 3 dominant early, huge mass
			w = []float64{0.9, 0.1}
		} else {
			idx = []int{7, step} // position 7 dominant recently, modest mass
			w = []float64{0.6, 0.4}
		}
		sw.Observe(0, idx, w)
		hh.Observe(0, idx, w)
	}
	swaSel := sw.Select(0, n)
	h2oSel := hh.Select(0, n)
	if !contains(swaSel, 7) {
		t.Fatalf("SWA should keep recently-hot token 7: %v", swaSel)
	}
	if contains(swaSel, 3) {
		t.Fatalf("SWA local sum should have forgotten stale token 3: %v", swaSel)
	}
	if !contains(h2oSel, 3) {
		t.Fatalf("H2O cumulative sum should still hold stale token 3: %v", h2oSel)
	}
}

func TestSWASelectionSorted(t *testing.T) {
	p := MustByName("swa", 0.5, 1)
	rng := rand.New(rand.NewSource(1))
	for step := 1; step <= 30; step++ {
		sel := p.Select(0, step)
		for i := 1; i < len(sel); i++ {
			if sel[i] <= sel[i-1] {
				t.Fatalf("step %d: selection not strictly ascending: %v", step, sel)
			}
		}
		w := make([]float64, len(sel)+1)
		for i := range w {
			w[i] = rng.Float64()
		}
		p.Observe(0, append(sel, step), w)
	}
}

// SWA against a plain rendering of Algorithm 1: rows kept as separate
// slices, the local sum updated with the same additions and subtractions
// in the same order, and the global half ranked by a full sort. 600 steps
// at ratio 0.6 grow and compact the observation arena many times over.
func TestSWAMatchesPlainReference(t *testing.T) {
	const ratio, steps = 0.6, 600
	p := MustByName("swa", ratio, 1)
	type row struct {
		idx []int
		w   []float64
	}
	var rows []row
	var sum []float64
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < steps; n++ {
		got := p.Select(0, n)

		var want []int
		if n > 0 {
			k := halfBudget(n, ratio)
			for len(rows) > k {
				for i, pos := range rows[0].idx {
					sum[pos] -= rows[0].w[i]
				}
				rows = rows[1:]
			}
			localStart := n - k
			score := func(pos int) float32 {
				var s float32
				if pos < len(sum) {
					s = float32(sum[pos])
				}
				return s + float32(float32(pos)*1e-12)
			}
			ranked := make([]int, localStart)
			for i := range ranked {
				ranked[i] = i
			}
			sort.SliceStable(ranked, func(a, b int) bool { return score(ranked[a]) > score(ranked[b]) })
			want = ranked[:min(k, localStart)]
			sort.Ints(want)
			for i := localStart; i < n; i++ {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Select = %v, want %v", n, got, want)
		}

		// Observe the selection plus the current token, and now and then
		// one unselected position, as the dense reference path does.
		idx := append(append([]int(nil), got...), n)
		if n > 0 && rng.Intn(4) == 0 {
			idx = append(idx, rng.Intn(n))
		}
		w := make([]float64, len(idx))
		for i := range w {
			w[i] = rng.Float64()
		}
		p.Observe(0, idx, w)
		rows = append(rows, row{idx, w})
		for i, pos := range idx {
			for len(sum) <= pos {
				sum = append(sum, 0)
			}
			sum[pos] += w[i]
		}
	}
}

func TestSWAPerLayerState(t *testing.T) {
	p := MustByName("swa", 0.2, 2)
	// Make position 1 hot on layer 0 only.
	for step := 10; step < 40; step++ {
		p.Observe(0, []int{1, step}, []float64{0.9, 0.1})
		p.Observe(1, []int{5, step}, []float64{0.9, 0.1})
	}
	if sel := p.Select(0, 40); !contains(sel, 1) {
		t.Fatalf("layer 0 lost its hitter: %v", sel)
	}
	if sel := p.Select(1, 40); !contains(sel, 5) || contains(sel, 1) {
		t.Fatalf("layer 1 state bled across layers: %v", sel)
	}
}

func TestLayerOutOfRangePanics(t *testing.T) {
	for _, name := range Registered() {
		for _, layer := range []int{-1, 1, 3} {
			for _, n := range []int{0, 10} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: Select(%d, %d) on 1 layer did not panic", name, layer, n)
						}
					}()
					MustByName(name, 0.5, 1).Select(layer, n)
				}()
			}
		}
	}
}

// TestObserves pins which policies observe: swa and h2o do, and a policy
// Observes reports false for selects the same whether or not it is fed
// weights, so skipping its Observe changes nothing.
func TestObserves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, name := range Registered() {
		fed, starved := MustByName(name, 0.3, 1), MustByName(name, 0.3, 1)
		want := name == "swa" || name == "h2o"
		if got := Observes(fed); got != want {
			t.Errorf("Observes(%s) = %v, want %v", name, got, want)
		}
		if want {
			continue
		}
		for n := 0; n < 64; n++ {
			sel := append([]int(nil), fed.Select(0, n)...)
			if other := starved.Select(0, n); !slices.Equal(sel, other) {
				t.Fatalf("%s at n=%d: selects %v when fed weights, %v when not", name, n, sel, other)
			}
			w := make([]float64, len(sel)+1)
			for i := range w {
				w[i] = rng.Float64()
			}
			fed.Observe(0, append(sel, n), w)
		}
	}
}

// Every policy's Select reuses per-layer scratch: once warmed at a cache
// length, selecting again allocates nothing.
func TestSelectAllocsZero(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	for _, name := range Registered() {
		p := MustByName(name, 0.3, 2)
		for step := 1; step <= n; step++ {
			for l := 0; l < 2; l++ {
				sel := p.Select(l, step)
				w := make([]float64, len(sel)+1)
				for i := range w {
					w[i] = rng.Float64()
				}
				p.Observe(l, append(append([]int(nil), sel...), step), w)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { p.Select(1, n) }); allocs != 0 {
			t.Errorf("%s: warmed Select allocates %v times per call, want 0", name, allocs)
		}
	}
}

func TestH2OKeepsCumulativeHitters(t *testing.T) {
	p := MustByName("h2o", 0.2, 1)
	for step := 10; step < 50; step++ {
		p.Observe(0, []int{4, step}, []float64{0.8, 0.2})
	}
	if sel := p.Select(0, 50); !contains(sel, 4) {
		t.Fatalf("H2O lost heavy hitter: %v", sel)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"dense":   &dense{},
		"local":   &local{},
		"strided": &strided{},
		"swa":     &swa{},
		"h2o":     &h2o{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
	for _, name := range Names() {
		p, err := ByName(name, 0.5, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("magic", 0.5, 1); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// Property: every policy returns ascending, in-range, duplicate-free
// indices whose count never exceeds the cache size.
func TestSelectionWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 0.05 + rng.Float64()*0.9
		for _, name := range Names() {
			p := MustByName(name, r, 1)
			for step := 0; step < 24; step++ {
				sel := p.Select(0, step)
				if len(sel) > step {
					return false
				}
				seen := map[int]bool{}
				prev := -1
				for _, i := range sel {
					if i < 0 || i >= step || seen[i] || i <= prev {
						return false
					}
					seen[i] = true
					prev = i
				}
				w := make([]float64, len(sel)+1)
				for i := range w {
					w[i] = rng.Float64()
				}
				p.Observe(0, append(append([]int(nil), sel...), step), w)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SWA at caching ratio 1.0 selects every cached token — it
// degrades to dense attention exactly, one of the paper's implicit
// invariants (0 % KV sparsity = dense).
func TestSWAFullRatioIsDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := MustByName("swa", 1.0, 1)
		for step := 1; step < 20; step++ {
			sel := p.Select(0, step)
			// k = ⌊step/2⌉ each half; for even step this is everything, for
			// odd step one token may drop due to the 2k ≤ n clamp — allow
			// n−1 as the floor.
			if len(sel) < step-1 {
				return false
			}
			w := make([]float64, len(sel)+1)
			for i := range w {
				w[i] = rng.Float64()
			}
			p.Observe(0, append(sel, step), w)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func contains(v []int, x int) bool {
	for _, e := range v {
		if e == x {
			return true
		}
	}
	return false
}

// seqWeights draws the attention weights one sequence feeds back: for each
// layer and step n, n+2 values, enough for any observed row (see obsRow).
func seqWeights(seed int64, layers, steps int) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([][][]float64, layers)
	for l := range w {
		w[l] = make([][]float64, steps)
		for n := range w[l] {
			w[l][n] = make([]float64, n+2)
			for i := range w[l][n] {
				w[l][n][i] = rng.Float64()
			}
		}
	}
	return w
}

// obsRow writes into idx[:0] the row a step with n cached tokens observes:
// the selection, the current token n, and the sink token 0 when the
// selection left it out (the dense path reports every position), so every
// row carries weight for position 0.
func obsRow(idx, sel []int, n int) []int {
	idx = append(append(idx[:0], sel...), n)
	if n > 0 && sel[0] != 0 {
		idx = append(idx, 0)
	}
	return idx
}

// runSeq drives p through one sequence: at each step n every layer selects
// from n cached tokens, then observes obsRow through the caller's buffer.
func runSeq(p Policy, w [][][]float64, idx *[]int) {
	for n := range w[0] {
		for l := range w {
			*idx = obsRow(*idx, p.Select(l, n), n)
			p.Observe(l, *idx, w[l][n][:len(*idx)])
		}
	}
}

// A used instance's next sequence selects exactly what a fresh instance
// selects: Select(l, 0) forgets what the layer observed before.
func TestSelectZeroRestartsSequence(t *testing.T) {
	const layers, steps = 2, 200
	a, b := seqWeights(1, layers, steps), seqWeights(2, layers, steps)
	for _, name := range Registered() {
		for _, ratio := range []float64{0.2, 0.6} {
			used, fresh := MustByName(name, ratio, layers), MustByName(name, ratio, layers)
			var idx []int
			runSeq(used, a, &idx)
			for n := 0; n < steps; n++ {
				for l := 0; l < layers; l++ {
					got := used.Select(l, n)
					want := fresh.Select(l, n)
					if !slices.Equal(got, want) {
						t.Fatalf("%s at ratio %v, layer %d, step %d of the second sequence: Select = %v, a fresh instance's = %v",
							name, ratio, l, n, got, want)
					}
					idx = obsRow(idx, got, n)
					used.Observe(l, idx, b[l][n][:len(idx)])
					fresh.Observe(l, idx, b[l][n][:len(idx)])
				}
			}
		}
	}
}

// A restarted instance keeps its buffers: a second sequence as long as the
// first allocates nothing in Select or Observe.
func TestRestartedSequenceAllocsZero(t *testing.T) {
	const layers, steps = 2, 300
	seqs := [][][][]float64{seqWeights(3, layers, steps), seqWeights(4, layers, steps)}
	for _, name := range Registered() {
		for _, ratio := range []float64{0.2, 0.6} {
			p := MustByName(name, ratio, layers)
			idx := make([]int, 0, steps+2)
			// AllocsPerRun's warm-up call runs the first sequence on the
			// fresh instance; its one measured call runs the second.
			i := 0
			allocs := testing.AllocsPerRun(1, func() {
				runSeq(p, seqs[i], &idx)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s at ratio %v: the second sequence allocated %v times, want 0", name, ratio, allocs)
			}
		}
	}
}
