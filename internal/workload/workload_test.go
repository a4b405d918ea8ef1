package workload

import (
	"math/rand"
	"testing"
)

func TestAlpacaSpecMatchesPaper(t *testing.T) {
	s := Alpaca(64)
	if s.Input != 128 || s.Output != 512 {
		t.Fatalf("spec %v, paper uses s=128 n=512", s)
	}
	if s.Batch != 64 {
		t.Fatalf("spec %v, want batch 64", s)
	}
	if s.String() == "" {
		t.Fatal("empty spec string")
	}
}

func TestFig9Batches(t *testing.T) {
	b := Fig9Batches()
	want := []int{4, 8, 16, 32, 64}
	if len(b) != len(want) {
		t.Fatalf("batches = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("batches = %v, want %v", b, want)
		}
	}
}

func TestFig1Workloads(t *testing.T) {
	ws := Fig1Workloads()
	if len(ws) != 2 {
		t.Fatalf("want two workloads, got %d", len(ws))
	}
	if ws[0].Batch >= ws[1].Batch {
		t.Fatal("w2 should be the larger batch")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(100, 7).Prompt(50)
	b := NewGenerator(100, 7).Prompt(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewGenerator(100, 8).Prompt(50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorTokensInVocab(t *testing.T) {
	g := NewGenerator(64, 3)
	for _, tok := range g.Prompt(500) {
		if tok < 0 || tok >= 64 {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	// Zipf streams concentrate on few tokens: the most common token
	// should appear far more than 1/vocab of the time.
	g := NewGenerator(96, 5)
	counts := make(map[int]int)
	const n = 4000
	for _, tok := range g.Prompt(n) {
		counts[tok]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 3.0/96 {
		t.Fatalf("stream not skewed: max frequency %v", float64(max)/n)
	}
}

func TestGeneratorRepetition(t *testing.T) {
	// A near-flat Zipf with a high repeat draw: the local repetition must
	// come from the recent-token window, not from a heavy frequency head.
	g := NewGenerator(1000, 11)
	g.zipf = rand.NewZipf(g.rng, 1.01, 1, uint64(g.vocab-1))
	g.repeat = 0.8
	toks := g.Prompt(400)
	repeats := 0
	for i := 1; i < len(toks); i++ {
		for j := max(0, i-16); j < i; j++ {
			if toks[j] == toks[i] {
				repeats++
				break
			}
		}
	}
	if float64(repeats)/float64(len(toks)) < 0.5 {
		t.Fatalf("high-repeat style produced only %d/%d repeats", repeats, len(toks))
	}
}

func TestGeneratorPanics(t *testing.T) {
	assertPanic(t, func() { NewGenerator(1, 0) })
}

func TestDatasetsComplete(t *testing.T) {
	ds := Datasets()
	if len(ds) != 7 {
		t.Fatalf("paper evaluates 7 datasets, got %d", len(ds))
	}
	models := []string{
		"opt-6.7b", "opt-13b", "opt-30b",
		"llama-7b", "llama-13b", "llama-33b",
		"pythia-6.9b", "pythia-12b",
	}
	for _, d := range ds {
		if d.Task != "lm" && d.Task != "qa" {
			t.Fatalf("%s: bad task %q", d.Name, d.Task)
		}
		if d.Task == "qa" && (d.Chance <= 0 || d.Chance >= 1) {
			t.Fatalf("%s: bad chance %v", d.Name, d.Chance)
		}
		for _, m := range models {
			v, err := d.DenseBaseline(m)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, m, err)
			}
			if d.Task == "qa" && (v <= d.Chance || v >= 1) {
				t.Fatalf("%s/%s: accuracy %v not in (chance, 1)", d.Name, m, v)
			}
			if d.Task == "lm" && v <= 1 {
				t.Fatalf("%s/%s: perplexity %v must exceed 1", d.Name, m, v)
			}
		}
	}
}

func TestLargerModelsBetterBaselines(t *testing.T) {
	// Within a family, larger models have lower perplexity.
	for _, d := range Datasets() {
		if d.Task != "lm" {
			continue
		}
		for _, fam := range [][]string{
			{"opt-6.7b", "opt-13b", "opt-30b"},
			{"llama-7b", "llama-13b", "llama-33b"},
			{"pythia-6.9b", "pythia-12b"},
		} {
			prev := 0.0
			for i, m := range fam {
				v, _ := d.DenseBaseline(m)
				if i > 0 && v >= prev {
					t.Fatalf("%s: %s ppl %v not below predecessor %v", d.Name, m, v, prev)
				}
				prev = v
			}
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, err := DatasetByName("piqa"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("imagenet"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := Datasets()[0].DenseBaseline("gpt-5"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// eqShape compares requests field by field — Request carries a token
// slice now, so == no longer compiles. The shape traces under test never
// set Tokens, so the scalar fields are the whole identity.
func eqShape(a, b Request) bool {
	return a.ID == b.ID && a.Arrival == b.Arrival && a.Input == b.Input && a.Output == b.Output
}

func TestPoissonTraceDeterministicAndValid(t *testing.T) {
	a := PoissonTrace(64, 2.5, 9)
	b := PoissonTrace(64, 2.5, 9)
	if len(a) != 64 {
		t.Fatalf("trace length %d", len(a))
	}
	for i := range a {
		if !eqShape(a[i], b[i]) {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if err := a.Validate(2048); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if c := PoissonTrace(64, 2.5, 10); eqShape(c[5], a[5]) && eqShape(c[6], a[6]) {
		t.Errorf("different seeds produced identical requests")
	}
	// Mean inter-arrival should be near 1/rate.
	mean := a[len(a)-1].Arrival / float64(len(a))
	if mean < 0.2 || mean > 0.8 {
		t.Errorf("mean inter-arrival %.3f implausible for rate 2.5", mean)
	}
	// The mixture must actually produce heterogeneous shapes.
	shapes := map[[2]int]bool{}
	for _, r := range a {
		shapes[[2]int{r.Input, r.Output}] = true
	}
	if len(shapes) < 16 {
		t.Errorf("only %d distinct shapes in 64 requests", len(shapes))
	}
}

func TestUniformTraceAndValidate(t *testing.T) {
	tr := UniformTrace(4, 0.25, 128, 64)
	if err := tr.Validate(2048); err != nil {
		t.Fatalf("uniform trace invalid: %v", err)
	}
	if tr[3].Arrival != 0.75 || tr[3].Input != 128 || tr[3].Output != 64 {
		t.Errorf("unexpected request %+v", tr[3])
	}
	bad := []Trace{
		{},
		{{ID: 0, Arrival: 1, Input: 8, Output: 8}, {ID: 1, Arrival: 0.5, Input: 8, Output: 8}},
		{{ID: 0, Arrival: 0, Input: 0, Output: 8}},
		{{ID: 0, Arrival: 0, Input: 8, Output: 8}},
		// Duplicate IDs would alias per-request serving records.
		{{ID: 3, Arrival: 0, Input: 8, Output: 8}, {ID: 3, Arrival: 1, Input: 8, Output: 8}},
	}
	maxSeqs := []int{0, 0, 0, 15, 0}
	for i, b := range bad {
		if err := b.Validate(maxSeqs[i]); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// TestTraceConstructorValidation is the table test over the validated
// trace constructors: every degenerate argument reports a clear error
// instead of silently producing an empty or degenerate trace, and the
// panicking wrappers surface the same message.
func TestTraceConstructorValidation(t *testing.T) {
	poisson := []struct {
		name string
		n    int
		rate float64
	}{
		{"zero count", 0, 2},
		{"negative count", -4, 2},
		{"zero rate", 16, 0},
		{"negative rate", 16, -1.5},
	}
	for _, tc := range poisson {
		t.Run("poisson/"+tc.name, func(t *testing.T) {
			tr, err := NewPoissonTrace(tc.n, tc.rate, 1)
			if err == nil {
				t.Fatalf("NewPoissonTrace(%d, %v) accepted, produced %d requests", tc.n, tc.rate, len(tr))
			}
			if tr != nil {
				t.Fatalf("error case returned a trace of %d requests", len(tr))
			}
			assertPanic(t, func() { PoissonTrace(tc.n, tc.rate, 1) })
		})
	}

	uniform := []struct {
		name          string
		n             int
		spacing       float64
		input, output int
	}{
		{"zero count", 0, 0.5, 8, 8},
		{"negative count", -1, 0.5, 8, 8},
		{"negative spacing", 4, -0.5, 8, 8},
		{"zero input", 4, 0.5, 0, 8},
		{"negative input", 4, 0.5, -8, 8},
		{"zero output", 4, 0.5, 8, 0},
		{"negative output", 4, 0.5, 8, -8},
	}
	for _, tc := range uniform {
		t.Run("uniform/"+tc.name, func(t *testing.T) {
			tr, err := NewUniformTrace(tc.n, tc.spacing, tc.input, tc.output)
			if err == nil {
				t.Fatalf("NewUniformTrace(%d, %v, %d, %d) accepted, produced %d requests",
					tc.n, tc.spacing, tc.input, tc.output, len(tr))
			}
			if tr != nil {
				t.Fatalf("error case returned a trace of %d requests", len(tr))
			}
			assertPanic(t, func() { UniformTrace(tc.n, tc.spacing, tc.input, tc.output) })
		})
	}

	// The valid boundary cases stay valid: spacing 0 is the simultaneous-
	// arrival control workload the serving tests rely on.
	if tr, err := NewUniformTrace(3, 0, 64, 32); err != nil || len(tr) != 3 {
		t.Fatalf("spacing-0 uniform trace rejected: %v", err)
	}
	if tr, err := NewPoissonTrace(1, 0.25, 7); err != nil || len(tr) != 1 {
		t.Fatalf("single-request poisson trace rejected: %v", err)
	}

	// The checked and panicking constructors produce identical traces.
	want, err := NewPoissonTrace(32, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	got := PoissonTrace(32, 3, 11)
	for i := range want {
		if !eqShape(want[i], got[i]) {
			t.Fatalf("checked and wrapper constructors diverged at %d: %+v vs %+v", i, want[i], got[i])
		}
	}
}

// TestSampleShapeMatchesPoissonMixture pins that SampleShape draws from
// the same stream and mixture PoissonTrace uses: replaying a trace's RNG
// (skipping the inter-arrival draw) reproduces its shapes exactly.
func TestSampleShapeMatchesPoissonMixture(t *testing.T) {
	tr := PoissonTrace(24, 2, 5)
	rng := rand.New(rand.NewSource(5))
	for i, r := range tr {
		rng.ExpFloat64() // the inter-arrival draw SampleShape does not consume
		in, out := SampleShape(rng)
		if in != r.Input || out != r.Output {
			t.Fatalf("request %d: SampleShape (%d,%d) != trace shape (%d,%d)", i, in, out, r.Input, r.Output)
		}
	}
}
