// Package numeric cross-validates the sparse-attention policies on the
// runnable transformer decoder: instead of the calibrated synthetic
// attention processes (package oracle), these experiments execute real
// softmax attention with real KV tensors, apply a policy's token
// selection, optionally impose quantized KV storage, and compare the
// resulting logits and next-token predictions against the dense reference
// on the same token stream.
//
// This is the numeric leg of the reproduction: the oracle experiments
// show the accuracy *mechanism* at paper scale; these show the same
// machinery producing the same orderings end to end on live tensors.
package numeric

import (
	"fmt"
	"math"

	"repro/internal/attention"
	"repro/internal/f16"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Config describes the stream a comparison decodes: the decoder and the
// teacher-forced tokens every case and the dense reference share.
type Config struct {
	// ModelSeed and DataSeed fix the decoder weights and the token
	// stream.
	ModelSeed, DataSeed int64
	// Tokens is the stream length (teacher-forced).
	Tokens int
	// Model overrides the decoder shape; zero value uses SmallConfig.
	Model model.Config
}

// Case is one configuration compared against the dense reference.
type Case struct {
	// Policy selects cached tokens; nil means dense.
	Policy attention.Policy
	// KVBits imposes KV storage precision by round-tripping the cache
	// after every step: 16 through IEEE half precision (what a GPU
	// runtime stores), 8 or 4 through the channel-wise quantizer; 0
	// leaves the cache in full float32.
	KVBits int
}

// Report compares a policy run against the dense reference.
type Report struct {
	Steps int
	// MeanNLL is the teacher-forced negative log-likelihood of the next
	// token (the log of the perplexity proxy, on live logits).
	MeanNLL float64
	// DenseNLL is the reference NLL on the identical stream.
	DenseNLL float64
	// TopAgreement is the fraction of steps whose argmax token matches
	// the dense run.
	TopAgreement float64
	// LogitCosine is the mean cosine similarity of the logit vectors
	// against the dense run.
	LogitCosine float64
}

// Compare decodes the stream once densely in float32 as the reference and
// once per case, and reports each case's divergence from the reference,
// in case order. A dense float32 case (Case{}) is the reference itself, so
// it reuses the reference's logits instead of decoding again.
func Compare(cfg Config, cases ...Case) ([]Report, error) {
	if cfg.Tokens < 8 {
		return nil, fmt.Errorf("numeric: need at least 8 tokens, got %d", cfg.Tokens)
	}
	for _, c := range cases {
		switch c.KVBits {
		case 0, 16, 8, 4:
		default:
			return nil, fmt.Errorf("numeric: unsupported KV bits %d", c.KVBits)
		}
	}
	mc := cfg.Model
	if mc.Layers == 0 {
		mc = model.SmallConfig()
	}
	if cfg.Tokens > mc.MaxSeq {
		return nil, fmt.Errorf("numeric: %d tokens exceed model max %d", cfg.Tokens, mc.MaxSeq)
	}
	dec := model.NewDecoder(mc, cfg.ModelSeed)
	stream := workload.NewGenerator(mc.Vocab, cfg.DataSeed).Prompt(cfg.Tokens)

	dense := run(dec, stream, Case{})
	reps := make([]Report, len(cases))
	for i, c := range cases {
		logits := dense
		if c.Policy != nil || c.KVBits != 0 {
			logits = run(dec, stream, c)
		}
		reps[i] = report(stream, logits, dense)
	}
	return reps, nil
}

// report scores one case's per-step logits against the dense reference's
// on predicting each next token of the stream.
func report(stream []int, logits, dense [][]float32) Report {
	rep := Report{Steps: len(stream) - 1}
	var agree int
	var cosSum float64
	for i := 0; i < rep.Steps; i++ {
		next := stream[i+1]
		rep.MeanNLL += nll(logits[i], next)
		rep.DenseNLL += nll(dense[i], next)
		if argmax(logits[i]) == argmax(dense[i]) {
			agree++
		}
		cosSum += cosine(logits[i], dense[i])
	}
	n := float64(rep.Steps)
	rep.MeanNLL /= n
	rep.DenseNLL /= n
	rep.TopAgreement = float64(agree) / n
	rep.LogitCosine = cosSum / n
	return rep
}

// run teacher-forces the stream through the decoder under the case's
// policy and collects per-step logits, copied out of each step's result
// into one arena. The KV cache is round-tripped through the case's
// storage precision after each step, imposing it on everything later
// steps read.
func run(dec *model.Decoder, stream []int, c Case) [][]float32 {
	st := dec.NewState()
	vocab := dec.Cfg.Vocab
	arena := make([]float32, len(stream)*vocab)
	logits := make([][]float32, len(stream))
	for i, tok := range stream {
		res := dec.DecodeStep(st, tok, c.Policy)
		logits[i] = arena[i*vocab : (i+1)*vocab : (i+1)*vocab]
		copy(logits[i], res.Logits)
		switch c.KVBits {
		case 16:
			for l := range st.K {
				f16.RoundTripSlice(st.K[l].Data)
				f16.RoundTripSlice(st.V[l].Data)
			}
		case 8, 4:
			for l := range st.K {
				quant.RoundTrip(st.K[l], c.KVBits)
				quant.RoundTrip(st.V[l], c.KVBits)
			}
		}
	}
	return logits
}

func nll(logits []float32, target int) float64 {
	// log-softmax at the target index, numerically stable.
	maxv := math.Inf(-1)
	for _, v := range logits {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v) - maxv)
	}
	return math.Log(sum) - (float64(logits[target]) - maxv)
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func cosine(a, b []float32) float64 {
	dot := tensor.Dot(a, b)
	na := tensor.Dot(a, a)
	nb := tensor.Dot(b, b)
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
