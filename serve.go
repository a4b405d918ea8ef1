package alisa

import (
	"repro/internal/serve"
	"repro/internal/workload"
)

// Request is one timestamped serving request (see workload.Request).
type Request = workload.Request

// TraceWorkload is an arrival-ordered serving workload.
type TraceWorkload = workload.Trace

// NewPoissonTrace samples n requests at the given mean arrival rate
// (requests/second) with heterogeneous input/output lengths,
// deterministic in the seed. The arguments are validated: a non-positive
// request count or rate is an error, never a silently empty trace.
func NewPoissonTrace(n int, rate float64, seed int64) (TraceWorkload, error) {
	return workload.NewPoissonTrace(n, rate, seed)
}

// PoissonTrace is NewPoissonTrace for arguments known to be valid; it
// panics with the validation error otherwise.
func PoissonTrace(n int, rate float64, seed int64) TraceWorkload {
	return workload.PoissonTrace(n, rate, seed)
}

// NewUniformTrace returns n identical-shape requests at fixed spacing
// (0 means all arrive at once). A non-positive count or shape, or a
// negative spacing, is an error, never a silently degenerate trace.
func NewUniformTrace(n int, spacing float64, input, output int) (TraceWorkload, error) {
	return workload.NewUniformTrace(n, spacing, input, output)
}

// UniformTrace is NewUniformTrace for arguments known to be valid; it
// panics with the validation error otherwise.
func UniformTrace(n int, spacing float64, input, output int) TraceWorkload {
	return workload.UniformTrace(n, spacing, input, output)
}

// ClosedClient is one deterministic closed-loop client script for
// Engine.ServeScripted: each Next call yields the client's next request
// — prompt token IDs, output length, think time — or ok=false when the
// script ends. The conversation and agent constructors below build the
// prefix-sharing workloads; any custom implementation works as long as
// Next is deterministic.
type ClosedClient = workload.ClosedClient

// NewConversationClients returns n multi-turn conversation clients of up
// to `turns` turns, each turn's prompt replaying the conversation's full
// growing history — per-client system prompt, earlier turns, and
// synthesized assistant replies — plus fresh user tokens. Sharing is
// within a conversation (clients never share prefixes), making it the
// canonical prefix-cache workload. think is the mean exponential think
// time between a completion and the client's next turn; maxSeq caps the
// history (a conversation that would overflow ends early; pass the
// model's MaxSeq). Deterministic in seed, with per-client RNG streams.
func NewConversationClients(n, turns int, think float64, maxSeq int, seed int64) []ClosedClient {
	return workload.NewConversationClients(n, turns, think, maxSeq, seed)
}

// NewAgentClients returns n agent-loop clients of up to `steps` steps:
// every step issues a short task prompt over one huge tool preamble
// shared by all clients — the high-hit-rate, cross-client sharing
// regime. Parameters as in NewConversationClients.
func NewAgentClients(n, steps int, think float64, maxSeq int, seed int64) []ClosedClient {
	return workload.NewAgentClients(n, steps, think, maxSeq, seed)
}

// NewRAGTrace returns an open-loop Poisson trace of n retrieval-
// augmented requests: a shared system preamble, one of a small pool of
// long documents (popularity-skewed), and a unique question — a
// long-context mixture with moderate prefix reuse. Deterministic in
// seed.
func NewRAGTrace(n int, rate float64, maxSeq int, seed int64) (TraceWorkload, error) {
	return workload.NewRAGTrace(n, rate, maxSeq, seed)
}

// NewConversationTrace returns an open-loop multi-turn trace whose
// conversations' turns interleave round-robin on one Poisson timeline —
// the fleet-routing workload, where keeping a conversation's turns on
// one replica decides the prefix hit rate. Deterministic in seed.
func NewConversationTrace(conversations, turns int, rate float64, maxSeq int, seed int64) (TraceWorkload, error) {
	return workload.NewConversationTrace(conversations, turns, rate, maxSeq, seed)
}

// ServeResult is the outcome of a serving simulation; see serve.Result.
type ServeResult = serve.Result
