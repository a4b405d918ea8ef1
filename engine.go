package alisa

import (
	"context"
	"fmt"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/serve"
)

// ConfigError reports an invalid engine configuration value by field
// name, raised when the configuration is compiled (New) or when a run
// method validates its per-call inputs — before any simulation state is
// built, never from deep inside a run.
type ConfigError struct {
	// Field names the offending option or argument: "Model", "Profile",
	// "Scheduler", "KVSparsity", "KVBits", "MaxBatch", "SLOTTFT",
	// "SLOTPOT", "MetricsWindow", "Batch", "Input", "Output", "Trace",
	// "Policy", "Steps", "Clients", "Requests", "ThinkTime", "Replicas",
	// "Router", "Autoscale", or "PrefixBlock".
	Field  string
	Value  any
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("alisa: invalid %s (%v): %s", e.Field, e.Value, e.Reason)
}

// evalLayerSample is the layer count of the compiled accuracy-evaluation
// process: the synthetic attention process is layer-exchangeable, so a
// small sample of layers measures the same statistics as the full stack
// at a fraction of the cost.
const evalLayerSample = 4

// Engine is a compiled simulation configuration: New resolves and
// validates the model, hardware profile, scheduler, sparsity,
// quantization, and serving parameters exactly once, and every subsequent
// Simulate / Serve / EvaluatePolicy call runs against that compiled state
// with no per-call lookups or re-validation. Sweeps that probe many
// workload points against one configuration therefore pay setup once.
//
// An Engine is immutable after New and safe for concurrent use by
// multiple goroutines, except that an attached Observer receives events
// from all concurrent runs and must synchronise internally (wrap it with
// SynchronizedObserver, or use ServeMany, which applies that wrapping
// itself). ServeMany runs the cells of a load sweep concurrently with
// deterministic per-cell results.
type Engine struct {
	// option state (raw, as supplied)
	profileName   string
	schedName     string
	kvSparsity    float64
	kvBits        int
	maxBatch      int
	sloTTFT       float64
	sloTPOT       float64
	observer      Observer
	seed          int64
	metricsWindow int
	exactMetrics  int
	prefixBlock   int

	// compiled state
	model    model.Config
	profile  memsim.Profile
	newSched sched.Factory
	spec     oracle.Spec
}

// Option configures an Engine at construction; see the With* functions.
type Option func(*Engine) error

// WithProfile selects the simulated hardware by profile name
// (V100-16GB, V100-32GB, H100-80GB; case-insensitive). The default is
// the paper's pairing for the model scale.
func WithProfile(name string) Option {
	return func(e *Engine) error {
		if name == "" {
			return &ConfigError{Field: "Profile", Value: name, Reason: "profile name must be non-empty"}
		}
		e.profileName = name
		return nil
	}
}

// WithScheduler selects the KV placement policy by scheduler name
// (alisa, flexgen, vllm, deepspeed-zero, hf-accelerate, gpu-only,
// no-cache, and the aliases deepspeed and accelerate). The default is
// "alisa".
func WithScheduler(name string) Option {
	return func(e *Engine) error {
		if name == "" {
			return &ConfigError{Field: "Scheduler", Value: name, Reason: "scheduler name must be non-empty"}
		}
		e.schedName = name
		return nil
	}
}

// WithKVSparsity sets SWA's skipped-token fraction, in [0, 1); 0 (the
// default) is dense attention. The paper's headline setting is 0.8.
func WithKVSparsity(s float64) Option {
	return func(e *Engine) error {
		if s < 0 || s >= 1 {
			return &ConfigError{Field: "KVSparsity", Value: s, Reason: "must be in [0,1)"}
		}
		e.kvSparsity = s
		return nil
	}
}

// WithKVBits sets the stored KV precision: 16 (FP16, the default) or 8
// (the paper's INT8 compression).
func WithKVBits(bits int) Option {
	return func(e *Engine) error {
		if bits != 8 && bits != 16 {
			return &ConfigError{Field: "KVBits", Value: bits, Reason: "must be 8 or 16"}
		}
		e.kvBits = bits
		return nil
	}
}

// WithMaxBatch caps concurrent decode sequences in Serve (default 16).
func WithMaxBatch(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return &ConfigError{Field: "MaxBatch", Value: n, Reason: "must be positive"}
		}
		e.maxBatch = n
		return nil
	}
}

// WithSLO sets the goodput service-level objectives for Serve: the
// time-to-first-token and time-per-output-token bounds, both in seconds
// (defaults 10 and 0.5).
func WithSLO(ttft, tpot float64) Option {
	return func(e *Engine) error {
		if ttft <= 0 {
			return &ConfigError{Field: "SLOTTFT", Value: ttft, Reason: "must be positive seconds"}
		}
		if tpot <= 0 {
			return &ConfigError{Field: "SLOTPOT", Value: tpot, Reason: "must be positive seconds"}
		}
		e.sloTTFT, e.sloTPOT = ttft, tpot
		return nil
	}
}

// WithMetricsWindow sets how many recent completions a Session's rolling
// metrics window holds (default 64) — the population Session.Snapshot
// digests into online TTFT/TPOT/E2E percentiles, windowed goodput, and
// SLO attainment. Larger windows smooth the percentiles; a window at
// least as large as the workload converges to the final ServeResult.
func WithMetricsWindow(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return &ConfigError{Field: "MetricsWindow", Value: n, Reason: "must be positive"}
		}
		e.metricsWindow = n
		return nil
	}
}

// WithExactMetrics sets the serving loop's exact-metrics threshold: runs
// whose total request count stays at or below n keep every completed
// request's record and report exact latency percentiles, while the
// first request past n switches the run to scale mode — the kept records
// stream into fixed-size quantile digests in push order and are dropped,
// later completions stream in as they happen, and retained memory
// tracks the live backlog instead of the trace length
// (ServeResult.Requests is then nil and the latency percentiles are
// sketch estimates within a documented rank-error bound; Mean and Max
// stay exact). Completed, Makespan, Throughput, Goodput and
// SLOAttainment are exact in both modes. 0 — the default — selects
// serve.DefaultExactMetrics (65536), which keeps every realistic
// benchmark trace on the exact path; negative streams from the first
// request. See DESIGN.md §10.
func WithExactMetrics(n int) Option {
	return func(e *Engine) error {
		e.exactMetrics = n
		return nil
	}
}

// PrefixCache configures the serving loop's shared prefix KV cache; see
// WithPrefixCache.
type PrefixCache struct {
	// BlockTokens is the sharing granularity: prompts are cached and
	// matched in blocks of this many token IDs. Required, positive; 16
	// is a reasonable default (`alisa serve`'s). The cache's
	// simulated GPU-resident bytes are capped at a quarter of the GPU
	// headroom left after weights and activations are reserved.
	BlockTokens int
}

// WithPrefixCache enables copy-on-write prefix KV sharing in Serve,
// Session, and cluster runs (DESIGN.md §13): prompts of admitted
// requests are cached block-granularly in a radix index, and later
// requests whose token IDs share a block-aligned prefix skip prefilling
// the matched tokens, paying only a fast HBM copy of the shared KV.
// Only requests that carry token IDs (Request.Tokens — the conversation,
// agent, and RAG workloads populate them) participate; shape-only
// requests always prefill in full. Off by default, and with it off the
// serving paths are bit-identical to an engine without the option.
func WithPrefixCache(pc PrefixCache) Option {
	return func(e *Engine) error {
		if pc.BlockTokens <= 0 {
			return &ConfigError{Field: "PrefixBlock", Value: pc.BlockTokens, Reason: "block must be positive tokens"}
		}
		e.prefixBlock = pc.BlockTokens
		return nil
	}
}

// WithObserver attaches a streaming Observer: Simulate sends step events,
// Serve and Session send step, admission, first-token, token,
// preemption, and completion events. Callbacks run inline on the
// simulation loop; the zero Observer observes nothing.
func WithObserver(o Observer) Option {
	return func(e *Engine) error {
		e.observer = o
		return nil
	}
}

// WithSeed sets the seed of the calibrated attention process
// EvaluatePolicy runs against (default 1). Simulate and Serve are fully
// deterministic and take no randomness from the seed.
func WithSeed(seed int64) Option {
	return func(e *Engine) error {
		e.seed = seed
		return nil
	}
}

// New compiles an engine for the named catalog model (see Models),
// applying the options in order. All name resolution and validation
// happens here, exactly once; errors are *ConfigError values naming the
// offending field.
func New(modelName string, opts ...Option) (*Engine, error) {
	e := &Engine{
		schedName:     "alisa",
		kvBits:        16,
		maxBatch:      16,
		sloTTFT:       10,
		sloTPOT:       0.5,
		seed:          1,
		metricsWindow: 64,
	}
	mc, err := model.ByName(modelName)
	if err != nil {
		return nil, &ConfigError{Field: "Model", Value: modelName, Reason: err.Error()}
	}
	e.model = mc

	for _, opt := range opts {
		if opt == nil {
			return nil, &ConfigError{Field: "Option", Value: nil, Reason: "nil Option"}
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}

	if e.profileName == "" {
		e.profile = experiments.PaperProfile(mc)
	} else {
		prof, err := memsim.ProfileByName(e.profileName)
		if err != nil {
			return nil, &ConfigError{Field: "Profile", Value: e.profileName, Reason: err.Error()}
		}
		e.profile = prof
	}

	factory, err := sched.FactoryByName(e.schedName)
	if err != nil {
		return nil, &ConfigError{Field: "Scheduler", Value: e.schedName, Reason: err.Error()}
	}
	e.newSched = factory

	e.spec = oracle.SpecForModel(mc, e.seed)
	e.spec.Layers = evalLayerSample
	return e, nil
}

// Model returns the compiled model's canonical catalog name.
func (e *Engine) Model() string { return e.model.Name }

// Profile returns the compiled hardware profile's name.
func (e *Engine) Profile() string { return e.profile.Name }

// Scheduler returns the compiled scheduler's name as passed to
// WithScheduler ("alisa" by default).
func (e *Engine) Scheduler() string { return e.schedName }

// Shape is one simulated workload point for Simulate: Batch sequences,
// each prefilling Input prompt tokens and generating Output tokens.
type Shape struct {
	Batch  int
	Input  int
	Output int
}

// validate reports the first invalid shape field.
func (s Shape) validate() error {
	switch {
	case s.Batch <= 0:
		return &ConfigError{Field: "Batch", Value: s.Batch, Reason: "must be positive"}
	case s.Input <= 0:
		return &ConfigError{Field: "Input", Value: s.Input, Reason: "must be positive"}
	case s.Output <= 0:
		return &ConfigError{Field: "Output", Value: s.Output, Reason: "must be positive"}
	}
	return nil
}

// Simulate runs one end-to-end lockstep inference simulation of the given
// workload shape against the compiled configuration — the unit of the
// paper's system evaluation. Out-of-memory failures return a Result with
// OOM set alongside the error, because OOM is itself a reported
// datapoint. Cancelling ctx mid-run returns the partial Result measured
// so far alongside ctx.Err().
func (e *Engine) Simulate(ctx context.Context, shape Shape) (*Result, error) {
	if err := shape.validate(); err != nil {
		return nil, err
	}
	return core.Run(ctx, core.Config{
		Model: e.model, Profile: e.profile, Scheduler: e.newSched(),
		Batch: shape.Batch, Input: shape.Input, Output: shape.Output,
		KVSparsity: e.kvSparsity, KVBits: e.kvBits,
		Observer: e.observer,
	})
}

// Serve runs a continuous-batching serving simulation of the trace
// against the compiled configuration: requests arrive on the trace
// timeline, a dynamic decode batch forms under admission control, and the
// compiled scheduler places each request's KV. Cancelling ctx mid-run
// releases all in-flight KV (the end-of-run leak check still applies) and
// returns the partial Result — metrics over the requests that completed —
// alongside ctx.Err().
//
// Serve is the offline replay adapter over the streaming session core:
// it seeds the step-driven loop with the whole trace and drains it. For
// interactive traffic — pushing requests mid-run, closed-loop clients,
// online windowed metrics, graceful drain — use Open / ServeClosedLoop.
func (e *Engine) Serve(ctx context.Context, trace TraceWorkload) (*ServeResult, error) {
	if len(trace) == 0 {
		return nil, &ConfigError{Field: "Trace", Value: trace, Reason: "trace must be non-empty"}
	}
	return serve.Run(ctx, e.serveConfig(trace, e.observer))
}

// serveConfig projects the compiled state onto one serving run.
func (e *Engine) serveConfig(trace TraceWorkload, obs Observer) serve.Config {
	return serve.Config{
		Model: e.model, Profile: e.profile,
		Scheduler:  e.schedName,
		Trace:      trace,
		KVSparsity: e.kvSparsity, KVBits: e.kvBits,
		MaxBatch: e.maxBatch, SLOTTFT: e.sloTTFT, SLOTPOT: e.sloTPOT,
		Observer:     obs,
		ExactMetrics: e.exactMetrics,
		PrefixBlock:  e.prefixBlock,
	}
}

// ServeMany runs one serving simulation per trace — the cells of a load
// sweep — concurrently on up to GOMAXPROCS workers, all against the
// compiled configuration. results[i] always corresponds to traces[i]:
// each cell is the same single-goroutine deterministic simulation Serve
// runs, so the output is bit-identical to calling Serve once per trace
// serially, regardless of completion order (pinned by test).
//
// An attached Observer receives every cell's events, serialized through
// one mutex (no internal locking needed); events from different cells
// interleave in completion order. Cancelling ctx stops unstarted cells
// (their results stay nil) and winds in-flight cells down through
// Serve's cancellation path, which still leak-checks and returns partial
// metrics.
//
// The returned error is the first cell error in trace order — later
// cells still run (a sweep wants every healthy cell even when one
// operating point is unservable); inspect results[i] for the cells that
// completed.
func (e *Engine) ServeMany(ctx context.Context, traces []TraceWorkload) ([]*ServeResult, error) {
	if len(traces) == 0 {
		return nil, &ConfigError{Field: "Trace", Value: traces, Reason: "at least one trace required"}
	}
	for i, tr := range traces {
		if len(tr) == 0 {
			return nil, &ConfigError{Field: "Trace", Value: i, Reason: "trace must be non-empty"}
		}
	}
	obs := events.Synchronized(e.observer)
	results := make([]*ServeResult, len(traces))
	errs := make([]error, len(traces))
	_ = grid.Run(ctx, len(traces), 0, func(cellCtx context.Context, i int) {
		results[i], errs[i] = serve.Run(cellCtx, e.serveConfig(traces[i], obs))
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, ctx.Err()
}

// EvaluatePolicy runs the named sparse-attention policy (dense, local,
// strided, swa, h2o) at the compiled KV sparsity against the compiled
// model-calibrated attention process for `steps` decode steps — the unit
// of the paper's accuracy evaluation. Cancelling ctx aborts with ctx.Err(); an accuracy
// evaluation has no meaningful partial result.
func (e *Engine) EvaluatePolicy(ctx context.Context, policyName string, steps int) (*PolicyReport, error) {
	if steps <= 0 {
		return nil, &ConfigError{Field: "Steps", Value: steps, Reason: "must be positive"}
	}
	pol, err := attention.ByName(policyName, 1-e.kvSparsity, e.spec.Layers)
	if err != nil {
		return nil, &ConfigError{Field: "Policy", Value: policyName, Reason: err.Error()}
	}
	ev, err := oracle.EvaluateContext(ctx, e.spec, pol, steps)
	if err != nil {
		return nil, err
	}
	rep := &PolicyReport{
		Policy:     policyName,
		KVSparsity: e.kvSparsity,
		MeanRecall: ev.MeanRecall,
	}
	if policyName == "dense" {
		// Dense attention is the reference distribution itself: its score
		// ranking compared against dense is the identity permutation, so
		// ρ ≡ 1 by definition and the numerical estimator is skipped (see
		// the PolicyReport.Spearman field comment).
		rep.Spearman = 1
	} else {
		rho, err := ev.SpearmanVsDense()
		if err != nil {
			return nil, err
		}
		rep.Spearman = rho
	}
	return rep, nil
}
