// Package model provides the transformer substrate: the exact architectural
// configurations of the model families the paper evaluates (OPT, LLaMA,
// Pythia — used for memory-footprint and FLOP accounting in the system
// simulator) and a small runnable decoder with deterministic weights (used
// for numeric experiments: real softmax attention, KV-cache equivalence,
// and quantization-error propagation).
package model

import (
	"fmt"
	"sort"
	"strings"
)

// Config describes a decoder-only transformer at the architectural level.
// Only shape parameters appear here — enough to compute weight bytes, KV
// bytes per token, and per-step FLOPs, which is all the system simulator
// needs to reproduce the paper's throughput results.
type Config struct {
	Name   string // canonical name, e.g. "opt-6.7b"
	Family string // "opt", "llama", "pythia"

	Layers int // transformer decoder layers (l in Table II)
	Hidden int // hidden dimension (h)
	Heads  int // attention heads
	FFN    int // feed-forward inner dimension
	Vocab  int // vocabulary size
	MaxSeq int // maximum context length

	// GatedFFN marks SwiGLU-style feed-forward blocks (LLaMA), which carry
	// three h×ffn projections instead of OPT/Pythia's two.
	GatedFFN bool
}

// ffnMatrices returns how many h×ffn projections the FFN block carries.
func (c *Config) ffnMatrices() int64 {
	if c.GatedFFN {
		return 3
	}
	return 2
}

// HeadDim returns the per-head dimension h/heads.
func (c *Config) HeadDim() int { return c.Hidden / c.Heads }

// Params returns the approximate parameter count: token + position
// embeddings, per-layer attention (4h² + 4h), feed-forward (2·h·ffn +
// h + ffn), and the two layer norms.
func (c *Config) Params() int64 {
	h := int64(c.Hidden)
	l := int64(c.Layers)
	f := int64(c.FFN)
	embed := int64(c.Vocab)*h + int64(c.MaxSeq)*h
	attn := 4*h*h + 4*h
	ffn := c.ffnMatrices()*h*f + h + f
	norms := 4 * h
	return embed + l*(attn+ffn+norms) + 2*h // final LN
}

// WeightBytes returns the model weight footprint at the given precision.
func (c *Config) WeightBytes(bytesPerParam int) int64 {
	return c.Params() * int64(bytesPerParam)
}

// KVBytesPerToken returns the KV-cache bytes one token occupies across all
// layers: 2 tensors (K and V) × layers × hidden × element size. With FP16
// this is the paper's "4·b·l·h bytes" per batch row (§V-A).
func (c *Config) KVBytesPerToken(bytesPerElem int) int64 {
	return 2 * int64(c.Layers) * int64(c.Hidden) * int64(bytesPerElem)
}

// ActivationBytes estimates per-step activation memory for a batch: the
// working set of one layer's hidden states and FFN intermediate, double
// buffered.
func (c *Config) ActivationBytes(batch, bytesPerElem int) int64 {
	per := int64(c.Hidden) + int64(c.FFN)
	return 2 * int64(batch) * per * int64(bytesPerElem)
}

// Catalog lists every model configuration the paper evaluates, with the
// published architectural parameters for each family and scale.
var catalog = map[string]Config{
	"opt-6.7b":    {Name: "opt-6.7b", Family: "opt", Layers: 32, Hidden: 4096, Heads: 32, FFN: 16384, Vocab: 50272, MaxSeq: 2048},
	"opt-13b":     {Name: "opt-13b", Family: "opt", Layers: 40, Hidden: 5120, Heads: 40, FFN: 20480, Vocab: 50272, MaxSeq: 2048},
	"opt-30b":     {Name: "opt-30b", Family: "opt", Layers: 48, Hidden: 7168, Heads: 56, FFN: 28672, Vocab: 50272, MaxSeq: 2048},
	"llama-7b":    {Name: "llama-7b", Family: "llama", Layers: 32, Hidden: 4096, Heads: 32, FFN: 11008, Vocab: 32000, MaxSeq: 2048, GatedFFN: true},
	"llama-13b":   {Name: "llama-13b", Family: "llama", Layers: 40, Hidden: 5120, Heads: 40, FFN: 13824, Vocab: 32000, MaxSeq: 2048, GatedFFN: true},
	"llama-33b":   {Name: "llama-33b", Family: "llama", Layers: 60, Hidden: 6656, Heads: 52, FFN: 17920, Vocab: 32000, MaxSeq: 2048, GatedFFN: true},
	"pythia-6.9b": {Name: "pythia-6.9b", Family: "pythia", Layers: 32, Hidden: 4096, Heads: 32, FFN: 16384, Vocab: 50304, MaxSeq: 2048},
	"pythia-12b":  {Name: "pythia-12b", Family: "pythia", Layers: 36, Hidden: 5120, Heads: 40, FFN: 20480, Vocab: 50304, MaxSeq: 2048},
}

// ByName returns the configuration for name (case-insensitive).
func ByName(name string) (Config, error) {
	c, ok := catalog[strings.ToLower(name)]
	if !ok {
		return Config{}, fmt.Errorf("model: unknown model %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return c, nil
}

// MustByName is ByName for static names; it panics on unknown models.
func MustByName(name string) Config {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the catalog's model names — the paper's evaluation
// set — in sorted order.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
