// Package workload defines the evaluation workloads: the system-level
// batch specs of §VI (Alpaca-sampled prompts, input 128 / output 512,
// batch 4–64), the Fig. 1 motivation workloads, synthetic token streams
// with natural-language-like statistics for the runnable decoder, the
// seven datasets of Fig. 8 with their published dense-attention baselines
// (the anchors the accuracy proxies are expressed against), and the
// arrival traces the serving simulator replays: timestamped requests with
// heterogeneous input/output lengths on a Poisson timeline.
package workload

import (
	"fmt"
	"math/rand"
)

// Spec is one system-level workload: a batch of identical-shape requests.
type Spec struct {
	Name   string
	Batch  int
	Input  int // prompt tokens (s)
	Output int // generated tokens (n)
}

// String formats the spec like the paper's (b, s, n) triples.
func (s Spec) String() string {
	return fmt.Sprintf("%s(b=%d,s=%d,n=%d)", s.Name, s.Batch, s.Input, s.Output)
}

// Alpaca returns the paper's system workload (§VI-A: "an input sequence
// length of 128 and an output sequence length of 512") at the given batch.
func Alpaca(batch int) Spec {
	return Spec{Name: "alpaca", Batch: batch, Input: 128, Output: 512}
}

// Fig9Batches lists the batch sizes of the throughput sweep.
func Fig9Batches() []int { return []int{4, 8, 16, 32, 64} }

// Fig1Workloads returns the two motivation workloads of Fig. 1 for
// OPT-6.7B on a V100-32G: a small batch that fits everywhere (where the
// CPU-placement slowdowns of ≈3×/5× are measured) and a large batch that
// OOMs without offloading.
func Fig1Workloads() []Spec {
	return []Spec{
		{Name: "w1", Batch: 4, Input: 512, Output: 512},
		{Name: "w2", Batch: 64, Input: 512, Output: 512},
	}
}

// Generator produces token streams with natural-language-like statistics
// for the runnable decoder: Zipf-distributed token frequencies with local
// repetition (recently used tokens recur), deterministic in the seed.
type Generator struct {
	vocab  int
	repeat float64 // probability the next token repeats one of the recent
	window int
	rng    *rand.Rand
	zipf   *rand.Zipf
	recent []int
}

// NewGenerator returns a generator over the given vocabulary.
func NewGenerator(vocab int, seed int64) *Generator {
	if vocab < 2 {
		panic(fmt.Sprintf("workload: vocabulary too small: %d", vocab))
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		vocab:  vocab,
		repeat: 0.2,
		window: 16,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.2, 1, uint64(vocab-1)),
	}
}

// Next returns the next token of the stream.
func (g *Generator) Next() int {
	var tok int
	if len(g.recent) > 0 && g.rng.Float64() < g.repeat {
		tok = g.recent[g.rng.Intn(len(g.recent))]
	} else {
		tok = int(g.zipf.Uint64())
	}
	g.recent = append(g.recent, tok)
	if len(g.recent) > g.window {
		g.recent = g.recent[1:]
	}
	return tok
}

// Prompt returns n tokens.
func (g *Generator) Prompt(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Dataset describes one of the paper's seven evaluation datasets with the
// dense-attention baseline the accuracy proxies anchor to. Baselines are
// per model name; missing entries fall back to the family default.
type Dataset struct {
	Name string
	Task string // "lm" (perplexity, lower better) or "qa" (accuracy)
	// Chance is the accuracy floor for QA tasks (random guessing).
	Chance float64
	// Dense maps model name to the dense-attention metric: perplexity for
	// lm, accuracy for qa. Values follow the published evaluations of the
	// OPT, LLaMA, and Pythia model cards under lm-evaluation-harness.
	Dense map[string]float64
}

// Datasets returns the seven datasets of Fig. 8 in the paper's order.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name: "wikitext-2", Task: "lm",
			Dense: map[string]float64{
				"opt-6.7b": 10.9, "opt-13b": 10.1, "opt-30b": 9.6,
				"llama-7b": 5.7, "llama-13b": 5.1, "llama-33b": 4.1,
				"pythia-6.9b": 12.7, "pythia-12b": 11.6,
			},
		},
		{
			Name: "ptb", Task: "lm",
			Dense: map[string]float64{
				"opt-6.7b": 13.1, "opt-13b": 12.3, "opt-30b": 11.8,
				"llama-7b": 8.9, "llama-13b": 8.2, "llama-33b": 7.4,
				"pythia-6.9b": 15.2, "pythia-12b": 14.1,
			},
		},
		{
			Name: "alpaca", Task: "lm",
			Dense: map[string]float64{
				"opt-6.7b": 8.7, "opt-13b": 8.1, "opt-30b": 7.7,
				"llama-7b": 6.2, "llama-13b": 5.8, "llama-33b": 5.1,
				"pythia-6.9b": 9.9, "pythia-12b": 9.2,
			},
		},
		{
			Name: "piqa", Task: "qa", Chance: 0.5,
			Dense: map[string]float64{
				"opt-6.7b": 0.763, "opt-13b": 0.769, "opt-30b": 0.777,
				"llama-7b": 0.781, "llama-13b": 0.790, "llama-33b": 0.809,
				"pythia-6.9b": 0.752, "pythia-12b": 0.760,
			},
		},
		{
			Name: "copa", Task: "qa", Chance: 0.5,
			Dense: map[string]float64{
				"opt-6.7b": 0.81, "opt-13b": 0.82, "opt-30b": 0.85,
				"llama-7b": 0.85, "llama-13b": 0.87, "llama-33b": 0.89,
				"pythia-6.9b": 0.79, "pythia-12b": 0.81,
			},
		},
		{
			Name: "openbookqa", Task: "qa", Chance: 0.25,
			Dense: map[string]float64{
				"opt-6.7b": 0.352, "opt-13b": 0.354, "opt-30b": 0.362,
				"llama-7b": 0.424, "llama-13b": 0.436, "llama-33b": 0.452,
				"pythia-6.9b": 0.330, "pythia-12b": 0.340,
			},
		},
		{
			Name: "winogrande", Task: "qa", Chance: 0.5,
			Dense: map[string]float64{
				"opt-6.7b": 0.653, "opt-13b": 0.650, "opt-30b": 0.682,
				"llama-7b": 0.701, "llama-13b": 0.727, "llama-33b": 0.760,
				"pythia-6.9b": 0.641, "pythia-12b": 0.651,
			},
		},
	}
}

// DenseBaseline returns the dataset's dense metric for the model, or an
// error for unknown models.
func (d Dataset) DenseBaseline(modelName string) (float64, error) {
	if v, ok := d.Dense[modelName]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("workload: no %s baseline for model %q", d.Name, modelName)
}

// DatasetByName looks up one of the seven datasets.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// Request is one serving request on an arrival timeline: it becomes
// visible to the admission loop at Arrival seconds, carries an
// Input-token prompt, and completes after Output generated tokens.
type Request struct {
	ID      int
	Arrival float64 // seconds since trace start
	Input   int     // prompt tokens (s)
	Output  int     // generated tokens (n)
	// Tokens, when non-nil, is the prompt's token-ID content — the
	// identity the shared prefix cache matches on. It must then hold
	// exactly Input tokens. A nil Tokens keeps the request anonymous:
	// every cost is identical, it just can never share prefix KV. The
	// multi-turn, agent, and RAG generators populate it; the shape-only
	// traces (Poisson, uniform) leave it nil.
	Tokens []int
}

// String formats the request like a (t, s, n) triple.
func (r Request) String() string {
	return fmt.Sprintf("r%d(t=%.3f,s=%d,n=%d)", r.ID, r.Arrival, r.Input, r.Output)
}

// Trace is a serving workload: requests ordered by arrival time.
type Trace []Request

// Validate checks that the trace is non-empty, arrival-ordered, has
// unique request IDs, and that every request has positive lengths fitting
// maxSeq (ignored when ≤ 0).
func (t Trace) Validate(maxSeq int) error {
	if len(t) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	seen := make(map[int]bool, len(t))
	prev := 0.0
	for i, r := range t {
		if seen[r.ID] {
			return fmt.Errorf("workload: duplicate request ID %d at %d", r.ID, i)
		}
		seen[r.ID] = true
		if r.Arrival < prev {
			return fmt.Errorf("workload: trace not arrival-ordered at %d (%.3f < %.3f)", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.Input <= 0 || r.Output <= 0 {
			return fmt.Errorf("workload: request %d has non-positive lengths s=%d n=%d", i, r.Input, r.Output)
		}
		if maxSeq > 0 && r.Input+r.Output > maxSeq {
			return fmt.Errorf("workload: request %d sequence %d exceeds max %d", i, r.Input+r.Output, maxSeq)
		}
		if r.Tokens != nil && len(r.Tokens) != r.Input {
			return fmt.Errorf("workload: request %d carries %d token IDs for an input of %d", i, len(r.Tokens), r.Input)
		}
	}
	return nil
}

// shapeClass is one mode of the heterogeneous request-shape mixture.
type shapeClass struct {
	weight       float64
	inLo, inHi   int // inclusive prompt-length range
	outLo, outHi int // inclusive output-length range
}

// serveMixture is the default request-shape mixture of PoissonTrace:
// chat-style short exchanges, document-grounded prompts with short
// answers, and generation-heavy completions — the heterogeneity regime
// continuous batching exists for.
var serveMixture = []shapeClass{
	{weight: 0.5, inLo: 64, inHi: 256, outLo: 32, outHi: 192},    // chat
	{weight: 0.25, inLo: 512, inHi: 1024, outLo: 32, outHi: 128}, // long-doc QA
	{weight: 0.25, inLo: 96, inHi: 192, outLo: 256, outHi: 512},  // generation-heavy
}

// SampleShape draws one request shape — prompt and output lengths —
// from the default heterogeneous serving mixture using the caller's RNG
// stream. PoissonTrace draws its shapes through exactly this function,
// so closed-loop clients sampling their next request see the same shape
// population as an open-loop Poisson trace.
func SampleShape(rng *rand.Rand) (input, output int) {
	cls := pickClass(rng, serveMixture)
	input = cls.inLo + rng.Intn(cls.inHi-cls.inLo+1)
	output = cls.outLo + rng.Intn(cls.outHi-cls.outLo+1)
	return input, output
}

// NewPoissonTrace returns n requests with exponential inter-arrival
// times at the given mean rate (requests/second) and shapes drawn from
// the default heterogeneous mixture. Deterministic in the seed. The
// arguments are validated: a non-positive request count or arrival rate
// is an error, never a silently empty or degenerate trace.
func NewPoissonTrace(n int, rate float64, seed int64) (Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: poisson trace needs a positive request count, got %d", n)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: poisson trace needs a positive arrival rate, got %v req/s", rate)
	}
	rng := rand.New(rand.NewSource(seed))
	t := make(Trace, 0, n)
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += rng.ExpFloat64() / rate
		input, output := SampleShape(rng)
		t = append(t, Request{ID: i, Arrival: clock, Input: input, Output: output})
	}
	return t, nil
}

// PoissonTrace is NewPoissonTrace for arguments known to be valid; it
// panics with the validation error otherwise. Kept for the inline
// construction the tests and benchmarks rely on.
func PoissonTrace(n int, rate float64, seed int64) Trace {
	t, err := NewPoissonTrace(n, rate, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// NewUniformTrace returns n identical-shape requests at fixed spacing —
// the lockstep-like control workload for serving experiments and the
// replay tests. Spacing 0 (every request arriving at once) is valid; a
// negative spacing, non-positive count, or non-positive shape is an
// error, never a silently degenerate trace.
func NewUniformTrace(n int, spacing float64, input, output int) (Trace, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("workload: uniform trace needs a positive request count, got %d", n)
	case spacing < 0:
		return nil, fmt.Errorf("workload: uniform trace needs non-negative spacing, got %v", spacing)
	case input <= 0 || output <= 0:
		return nil, fmt.Errorf("workload: uniform trace needs positive request lengths, got s=%d n=%d", input, output)
	}
	t := make(Trace, 0, n)
	for i := 0; i < n; i++ {
		t = append(t, Request{ID: i, Arrival: float64(i) * spacing, Input: input, Output: output})
	}
	return t, nil
}

// UniformTrace is NewUniformTrace for arguments known to be valid; it
// panics with the validation error otherwise.
func UniformTrace(n int, spacing float64, input, output int) Trace {
	t, err := NewUniformTrace(n, spacing, input, output)
	if err != nil {
		panic(err)
	}
	return t
}

// pickClass samples one mixture mode by weight.
func pickClass(rng *rand.Rand, classes []shapeClass) shapeClass {
	var total float64
	for _, c := range classes {
		total += c.weight
	}
	x := rng.Float64() * total
	for _, c := range classes {
		if x < c.weight {
			return c
		}
		x -= c.weight
	}
	return classes[len(classes)-1]
}
