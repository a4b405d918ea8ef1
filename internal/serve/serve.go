// Package serve is a discrete-event, multi-request serving simulator
// layered on the lockstep engine's cost and memory models — the
// continuous-batching regime (vLLM-style) projected onto the paper's
// simulated GPU–CPU system.
//
// Requests arrive on a workload.Trace timeline with heterogeneous
// input/output lengths. A single event loop owns the simulated clock:
//
//   - Admission (FCFS): while capacity and the batch cap allow, arrived
//     requests are prefilled and join the dynamic decode batch. Each
//     request runs its own instance of a sched.Scheduler as its KV
//     placement policy, sharing one memsim.System, so every policy's
//     memory pressure is global while its placement decisions stay
//     per-sequence.
//   - Decode iterations: every active request plans one step through its
//     scheduler (transfers charged to the shared clock/PCIe link), then
//     the whole ragged batch is charged as one fused iteration through
//     costmodel.RaggedDecodeTime, priced by the server's
//     costmodel.DecodePrices table.
//   - Preemption: when a request cannot allocate (GPU pressure from new
//     admissions), the youngest-admitted sequence is preempted — its KV
//     is released in full and the request restarts from its prompt on
//     readmission, i.e. recompute-style preemption, the serving-level
//     analogue of ALISA's Phase III deletion.
//   - Completion: a finished request's KV is freed through the
//     scheduler's Release hook (free-on-completion).
//
// The loop is single-goroutine and seeded, so a (trace, config) pair
// replays to a byte-identical observer event stream and metrics,
// independent of GOMAXPROCS.
//
// The steady state is engineered allocation-free: the per-iteration plan
// and ragged-attention scratch, the per-admission sequence state with its
// scheduler and Context, and the preemption requeue all reuse
// server-owned storage. Run is safe to execute concurrently with other
// Runs — each owns its state — which is what Engine.ServeMany and the
// parallel sweep CLIs exploit. See DESIGN.md §8.
//
// The event loop itself is step-driven: Loop exposes the three
// transitions — Inject (push a request onto the timeline), Advance (one
// event-loop turn), Drain (advance to empty, then leak-check) — and Run
// is a thin adapter that seeds a Loop with a full trace and drains it.
// Streaming callers (the public alisa.Session) inject requests at any
// simulated time instead, including from observer callbacks mid-run,
// which is how closed-loop clients issue their next request on
// completion. A Loop fed the same arrivals as a trace replays the trace
// bit for bit. See DESIGN.md §9.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serve/prefix"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config specifies one serving simulation.
type Config struct {
	Model   model.Config
	Profile memsim.Profile
	// Scheduler is the per-request KV placement policy, by sched.ByName
	// name. Every admitted sequence runs its own instance, so policies
	// keep per-sequence state; instances are pooled with the sequence
	// state and re-Initialised at each admission (the sched.Scheduler
	// reuse contract). A scheduler that keeps the weights in CPU memory
	// (sched.WeightsOnCPU: deepspeed-zero) is not servable: weight streaming is
	// an engine-wide property, not a per-request one.
	Scheduler string

	Trace workload.Trace

	// KVSparsity and KVBits configure SWA and KV compression exactly as in
	// the lockstep engine (KVBits 0 → 16, dense FP16).
	KVSparsity float64
	KVBits     int

	// MaxBatch caps concurrent decode sequences (0 → 16). Activations are
	// reserved for this cap up front.
	MaxBatch int

	// SLOTTFT and SLOTPOT are the goodput service-level objectives:
	// a completed request counts toward goodput only when its
	// time-to-first-token and time-per-output-token meet both bounds
	// (0 → 10 s and 0.5 s).
	SLOTTFT float64
	SLOTPOT float64

	// Observer receives streaming admission, first-token, token,
	// preemption, completion, and per-iteration step events — the run's
	// event record, which the replay-determinism suite pins. Callbacks
	// run inline on the event loop; a kind whose callback is nil costs
	// one nil check and builds no event. Loop.SetObserver replaces it
	// mid-run.
	Observer events.Observer

	// ExactMetrics is the exact-metrics threshold: while the total number
	// of requests handed to the loop stays at or below it, the run keeps
	// every completed request's record, and Finalize reports them in
	// insertion order with exact latency percentiles. The first
	// injection that pushes the total past the threshold switches the
	// loop to scale mode, deterministically (the trigger depends only on
	// the injection count): the kept records stream into fixed-size
	// digests (metrics.LatencyDigest) in insertion order and are dropped,
	// and every later completion streams in as it happens, so retained
	// memory tracks the live backlog, not the trace length. The run
	// totals (Completed, Makespan, Throughput, Goodput, SLOAttainment)
	// are exact in both modes. In scale mode Result.Requests is nil, the
	// latency percentiles are sketch estimates within the documented
	// rank-error bound (Mean and Max stay exact), and duplicate-ID
	// detection covers live requests only. 0 selects
	// DefaultExactMetrics; negative means scale mode from the first
	// request. See DESIGN.md §10.
	ExactMetrics int

	// PrefixBlock enables the shared prefix KV cache (DESIGN.md §13):
	// prompts of admitted requests are cached in PrefixBlock-token blocks
	// in a copy-on-write radix index, and later requests whose token IDs
	// share a block-aligned prefix skip prefilling the matched tokens,
	// paying a fast HBM copy of the shared KV instead. 0 — the default —
	// leaves the cache out entirely: the loop is bit-identical to a build
	// without it. Only requests that carry token IDs
	// (workload.Request.Tokens) participate; shape-only requests always
	// prefill in full.
	PrefixBlock int
}

// DefaultExactMetrics is the exact-metrics threshold when
// Config.ExactMetrics is zero: large enough that every current trace,
// test, and example stays on the bit-identical exact path, small enough
// that million-request runs stream.
const DefaultExactMetrics = 65536

// withDefaults returns the config with zero fields defaulted.
func (c Config) withDefaults() Config {
	if c.KVBits == 0 {
		c.KVBits = 16
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.SLOTTFT == 0 {
		c.SLOTTFT = 10
	}
	if c.SLOTPOT == 0 {
		c.SLOTPOT = 0.5
	}
	return c
}

// Validate reports configuration errors before a run. Run requires a
// non-empty trace; a streaming Loop validates with validateStatic and
// checks each injected request instead.
func (c Config) Validate() error {
	if err := c.validateStatic(); err != nil {
		return err
	}
	return c.Trace.Validate(c.Model.MaxSeq)
}

// validateStatic checks every configuration field except the trace.
func (c Config) validateStatic() error {
	factory, schedErr := sched.FactoryByName(c.Scheduler)
	switch {
	case c.Model.Layers <= 0:
		return fmt.Errorf("serve: model config required")
	case schedErr == nil && sched.WeightsOnCPU(factory()):
		return fmt.Errorf("serve: %s streams weights engine-wide and cannot act as a per-request policy", factory().Name())
	case c.KVSparsity < 0 || c.KVSparsity >= 1:
		return fmt.Errorf("serve: KV sparsity must be in [0,1), got %v", c.KVSparsity)
	case c.KVBits != 4 && c.KVBits != 8 && c.KVBits != 16:
		return fmt.Errorf("serve: KV bits must be 4, 8 or 16, got %d", c.KVBits)
	case c.MaxBatch < 0:
		return fmt.Errorf("serve: negative batch cap %d", c.MaxBatch)
	case c.PrefixBlock < 0:
		return fmt.Errorf("serve: negative prefix cache block of %d tokens", c.PrefixBlock)
	}
	return schedErr
}

// RequestRecord is the per-request outcome of a serving run.
type RequestRecord struct {
	ID      int
	Arrival float64
	// Admitted is the (final) admission time; preempted requests are
	// readmitted and the latest admission is kept.
	Admitted float64
	// FirstToken is when the prompt finished prefilling after final
	// admission — the end of TTFT.
	FirstToken float64
	Finished   float64
	Input      int
	Output     int
	// Preemptions counts how many times the request lost its KV and
	// restarted from the prompt.
	Preemptions int
}

// String renders the record with full float precision, so replay
// fingerprints catch any drift.
func (r RequestRecord) String() string {
	return fmt.Sprintf("r%d arr=%.9f adm=%.9f ft=%.9f fin=%.9f s=%d n=%d pre=%d",
		r.ID, r.Arrival, r.Admitted, r.FirstToken, r.Finished, r.Input, r.Output, r.Preemptions)
}

// TTFT returns the request's time to first token: arrival → first token,
// queueing and any preempted work included.
func (r RequestRecord) TTFT() float64 { return r.FirstToken - r.Arrival }

// TPOT returns the request's mean time per output token after the first.
func (r RequestRecord) TPOT() float64 {
	if r.Output <= 0 {
		return 0
	}
	return (r.Finished - r.FirstToken) / float64(r.Output)
}

// Result is the outcome of a serving simulation.
type Result struct {
	Scheduler string
	// Requests holds the per-request records in insertion order — on the
	// exact-metrics path only. A scale-mode run (see Config.ExactMetrics)
	// streams records into digests at completion time and reports
	// Requests nil; Completed still counts them.
	Requests []RequestRecord
	// Completed is the number of requests that ran to completion, in
	// either mode.
	Completed int
	// Breakdown is the system's time ledger: every charged second by
	// category. Idle jumps to a future arrival are charged to none.
	Breakdown trace.Breakdown

	// Makespan is the simulated time from trace start to the last
	// completion.
	Makespan float64
	// Throughput is generated tokens per second over the makespan.
	Throughput float64
	// Goodput is the generated-token rate counting only requests that met
	// both SLOs.
	Goodput float64
	// SLOAttainment is the fraction of requests that met both SLOs.
	SLOAttainment float64

	TTFT metrics.LatencySummary
	TPOT metrics.LatencySummary
	E2E  metrics.LatencySummary

	Preemptions int
	// MeanBatch is the decode-batch occupancy averaged over iterations.
	MeanBatch float64

	// PrefillTokens is the total prompt tokens actually prefilled across
	// all admissions (readmissions after preemption included). With the
	// prefix cache on, tokens served from shared blocks are excluded —
	// the prefill-reduction claims compare this field across cache-off
	// and cache-on runs of the same trace.
	PrefillTokens int64
	// PrefixHits and PrefixMisses count admissions of token-carrying
	// requests whose prefix-cache probe matched at least one block /
	// matched nothing. Both are zero when the cache is off.
	PrefixHits, PrefixMisses int
	// PrefixCachedTokens is the total leading prompt tokens served from
	// the shared cache, summed over admissions.
	PrefixCachedTokens int64
	// PrefixSharedBytes is the peak simulated bytes resident in the
	// shared prefix cache over the run.
	PrefixSharedBytes int64
	// PeakGPU and PeakCPU are the memory high-water marks.
	PeakGPU, PeakCPU int64
}

// PrefixHitRate is the prefix-cache hit rate over probed admissions,
// 0 before any probe (and always 0 with the cache off).
func (r *Result) PrefixHitRate() float64 {
	if probes := r.PrefixHits + r.PrefixMisses; probes > 0 {
		return float64(r.PrefixHits) / float64(probes)
	}
	return 0
}

// seqState is one admitted request's runtime state. Instances (with their
// sched.Context and scheduler) are owned by the server's seqPool and
// recycled across admissions, so the steady-state loop does not allocate
// them.
type seqState struct {
	req workload.Request
	sch sched.Scheduler
	ctx *sched.Context
	j   int // completed decode steps
	// rec is the request's record since its latest admission; complete
	// closes it and hands it to the metrics.
	rec RequestRecord
	// seq is the request's wait-queue ticket, kept so a preemption
	// requeue restores its FCFS position (see reqQueue). It is also the
	// request's insertion index, which orders the exact path's records.
	seq uint64
	// done marks a sequence completed this iteration; iterate compacts
	// the active list once after the completion sweep instead of paying a
	// linear scan-and-shift per completion.
	done bool
	// leaseLen is the token length of the sequence's prefix-cache lease
	// (0 when the cache is off or the request carries no tokens); the
	// release re-walks req.Tokens[:leaseLen], so cloning a loop never has
	// to translate node pointers for in-flight leases.
	leaseLen int
}

// stepped pairs a sequence with its plan for the current iteration.
type stepped struct {
	st   *seqState
	plan sched.StepPlan
}

// server is the event-loop state of one run.
type server struct {
	cfg      Config
	sys      *memsim.System
	cost     costmodel.Cost
	newSched sched.Factory // scheduler constructor for new pool members

	// prices charges each fused decode iteration: RaggedDecodeTime at
	// the run's model and KV width, with every attended count's
	// attention term priced once.
	prices costmodel.DecodePrices

	// queue is the arrival-keyed indexed wait queue: a binary min-heap on
	// (Arrival, ticket) that frees each slot on pop. Preemption requeues
	// re-enqueue under the original ticket, restoring the victim's FCFS
	// position without allocating.
	queue reqQueue

	// injected counts every request ever handed to the loop; crossing
	// exactLimit flips the run into scale mode, deterministically.
	injected   int
	exactLimit int
	// dig is non-nil once the run entered scale mode: completions stream
	// into its latency digests instead of kept.
	dig *scaleDigests

	active []*seqState
	// ids maps every live request's ID to its preemptions so far. On the
	// exact path completed IDs stay too, so duplicate detection spans
	// every request ever injected; scale mode deletes them at completion.
	ids map[int]int
	// kept holds the exact path's completed records with their tickets;
	// sorted by ticket they are in insertion order.
	kept []keptRecord
	// tot sums every completion, in both modes.
	tot totals

	preemptions int
	iterations  int
	batchSum    int

	// staticGPU/staticCPU are the post-reservation baselines; when the
	// last request retires, usage must return to them exactly or the
	// per-sequence accounting leaked.
	staticGPU, staticCPU int64

	// admissionBlockedHeadroom remembers the GPU headroom at the last
	// failed admission probe; re-probing waits until headroom grows, so a
	// stuck head-of-queue request does not charge probe transfers every
	// iteration. lastAdmitErr keeps that probe's placement error for the
	// unservable diagnosis.
	admissionBlockedHeadroom int64
	lastAdmitErr             error

	// Iteration scratch, reused every turn: the per-sequence plans and
	// the ragged attended-token counts of the fused compute charge.
	plans    []stepped
	attended []int
	// seqPool recycles seqStates with their Context and scheduler,
	// released by completion, preemption, or a failed admission probe;
	// bounded by MaxBatch+1.
	seqPool []*seqState
	// kvTokenFP16 is the per-run constant Model.KVBytesPerToken(2),
	// hoisted out of the quantization charge.
	kvTokenFP16 int64

	// cache is the shared prefix KV index, nil unless Config.PrefixBlock
	// is set; every cache touch in the loop is gated on it, which is what
	// keeps cache-off runs bit-identical to the pre-cache tree.
	cache *prefix.Index
	// cacheTokenBytes is the per-token KV footprint at serving precision
	// — what one cached token costs in simulated GPU bytes.
	cacheTokenBytes int64
	// prefillTokens totals the prompt tokens actually prefilled;
	// prefixPeakBytes is the cache's resident-byte high-water mark.
	prefillTokens   int64
	prefixPeakBytes int64

	// res is the finalized Result, nil until finalize.
	res *Result
}

// Run simulates the configured serving workload to completion: it
// injects the full trace into a Loop and drains it — the offline replay
// adapter over the step-driven session core.
//
// Cancellation is checked once per event-loop turn: when ctx is cancelled
// mid-run, every active sequence's KV is released (the end-of-run leak
// check still applies), the metrics are finalised over the requests that
// completed, and the partial Result is returned alongside ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l, err := newLoop(cfg)
	if err != nil {
		return nil, err
	}
	if err := l.Drain(ctx); err != nil {
		if IsCancellation(err) {
			return l.Finalize(), err
		}
		return nil, err
	}
	return l.Finalize(), nil
}

// IsCancellation reports whether err is a context cancellation or
// deadline expiry — the class of failures that still carries a partial
// Result (metrics over the requests that completed). It is the one
// classification every drain path uses — Run, the public session Close,
// and the cluster layer — so cause-wrapped cancellations
// (context.WithCancelCause) behave identically everywhere.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Loop is the step-driven serving core: one discrete-event continuous-
// batching simulation advanced a turn at a time, with requests injected
// at any point instead of replayed from a pre-materialized trace. The
// three transitions are Inject, Advance, and Drain; Finalize digests the
// aggregate Result. A Loop is single-goroutine like Run — callers own
// the sequencing — and a Loop fed a trace's arrivals through Inject
// produces the same metrics and event stream as Run on that trace.
type Loop struct {
	s server
	// err latches the first fatal or cancellation error; every transition
	// after it reports the same failure instead of touching torn state.
	err       error
	finalized bool
}

// NewLoop validates the configuration and builds an idle serving loop.
// Unlike Run, cfg.Trace is optional: a non-empty trace is injected in
// order, and streaming callers start empty and Inject instead.
func NewLoop(cfg Config) (*Loop, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateStatic(); err != nil {
		return nil, err
	}
	if len(cfg.Trace) > 0 {
		if err := cfg.Trace.Validate(cfg.Model.MaxSeq); err != nil {
			return nil, err
		}
	}
	return newLoop(cfg)
}

// newLoop builds the loop state from an already-validated, defaulted
// configuration, reserves the static memory and injects cfg.Trace.
func newLoop(cfg Config) (*Loop, error) {
	factory, err := sched.FactoryByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}

	exactLimit := cfg.ExactMetrics
	if exactLimit == 0 {
		exactLimit = DefaultExactMetrics
	}
	cost := costmodel.New(cfg.Profile)
	kvWidth := 2 // the element width the attention kernels read
	if cfg.KVBits < 16 {
		kvWidth = 1
	}
	l := &Loop{}
	l.s = server{
		cfg:                      cfg,
		sys:                      memsim.NewSystem(cfg.Profile),
		cost:                     cost,
		prices:                   costmodel.NewDecodePrices(cost, cfg.Model, kvWidth),
		newSched:                 factory,
		exactLimit:               exactLimit,
		ids:                      make(map[int]int, len(cfg.Trace)),
		admissionBlockedHeadroom: -1,
		kvTokenFP16:              cfg.Model.KVBytesPerToken(2),
	}
	s := &l.s
	if exactLimit < 0 {
		s.enterScaleMode()
	}
	if err := s.reserveStatic(); err != nil {
		return nil, err
	}
	s.newPrefixCache()
	for _, r := range cfg.Trace {
		if err := l.Inject(r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Inject pushes one request onto the simulated timeline. The arrival may
// lie anywhere at or after zero — in the future (the loop advances the
// clock to it when it goes idle), or before the current clock, in which
// case the request is immediately due and queues behind the already-
// waiting work. Equal arrivals keep injection order. Injecting from an
// Observer callback mid-turn is supported; that is how closed-loop
// clients issue their next request on completion.
func (l *Loop) Inject(req workload.Request) error {
	if err := l.gate(); err != nil {
		return err
	}
	s := &l.s
	if err := CheckRequest(req, s.cfg.Model.MaxSeq); err != nil {
		return err
	}
	// Duplicate detection spans every request ever injected on the exact
	// path; scale mode forgets completed IDs, so it covers live requests
	// only (see Config.ExactMetrics).
	if _, dup := s.ids[req.ID]; dup {
		return fmt.Errorf("serve: duplicate request ID %d", req.ID)
	}

	// Enqueue under a fresh ticket: the (arrival, ticket) key keeps the
	// admission loop's FCFS contract — arrival order, injection order
	// across equal arrivals — no matter when the request was pushed.
	s.queue.Push(req)
	// A failed probe's "head didn't fit" verdict belongs to the request
	// that was probed. If this injection sorts ahead of that blocked
	// head, the cached verdict no longer describes the queue front: clear
	// the gate so the next admission pass probes the new head even though
	// GPU headroom has not moved, and drop the stale probe error so the
	// unservable diagnosis can never report a different request's failure.
	if s.admissionBlockedHeadroom >= 0 && s.queue.Peek().ID == req.ID {
		s.admissionBlockedHeadroom = -1
		s.lastAdmitErr = nil
	}
	s.injected++
	s.ids[req.ID] = 0
	if s.dig == nil && s.exactLimit >= 0 && s.injected > s.exactLimit {
		s.enterScaleMode()
	}
	return nil
}

// CheckRequest reports why Inject would refuse req on its own merits —
// non-positive lengths, a sequence over the model's maxSeq budget (0:
// unbounded), a negative arrival, or token IDs that do not match the
// input length — or nil. It needs no loop, so a fleet front-end can
// refuse a request before routing it.
func CheckRequest(req workload.Request, maxSeq int) error {
	switch {
	case req.Input <= 0 || req.Output <= 0:
		return fmt.Errorf("serve: request %d has non-positive lengths s=%d n=%d", req.ID, req.Input, req.Output)
	case maxSeq > 0 && req.Input+req.Output > maxSeq:
		return fmt.Errorf("serve: request %d sequence %d exceeds max %d", req.ID, req.Input+req.Output, maxSeq)
	case req.Arrival < 0:
		return fmt.Errorf("serve: request %d has negative arrival %v", req.ID, req.Arrival)
	case req.Tokens != nil && len(req.Tokens) != req.Input:
		return fmt.Errorf("serve: request %d carries %d token IDs for an input of %d", req.ID, len(req.Tokens), req.Input)
	}
	return nil
}

// Advance runs one event-loop turn: jump the clock to the next arrival
// if the system is idle, admit arrived requests FCFS, then execute one
// fused decode iteration over the active batch. It reports false with a
// nil error when the loop is idle — nothing waiting, nothing active —
// which is the signal to Inject more work or Drain. Cancelling ctx
// releases every in-flight sequence's KV and latches ctx.Err().
func (l *Loop) Advance(ctx context.Context) (bool, error) {
	if err := l.gate(); err != nil {
		return false, err
	}
	progressed, err := l.s.turn(ctx)
	if err != nil {
		l.err = err
	}
	return progressed, err
}

// Drain advances the loop until it goes idle — every injected request
// completed — then verifies the KV accounting returned exactly to the
// static reservations. It does not block new injections itself (the
// loop has no intrinsic "closing" state); callers wanting a graceful
// close stop injecting and Drain.
func (l *Loop) Drain(ctx context.Context) error {
	for {
		progressed, err := l.Advance(ctx)
		if err != nil {
			return err
		}
		if !progressed {
			if err := l.s.checkLeak(); err != nil {
				l.err = err
				return err
			}
			return nil
		}
	}
}

// Finalize computes the aggregate metrics over every request handed to
// the loop, in insertion order, and returns the Result. Requests that
// never completed (cancelled or still-pending work) are summarised out,
// exactly as Run's cancellation path reports partial metrics. Finalize
// is idempotent and ends the loop: every later transition fails.
func (l *Loop) Finalize() *Result {
	if !l.finalized {
		l.finalized = true
		l.s.finalize()
	}
	return l.s.res
}

// Clock returns the current simulated time in seconds.
func (l *Loop) Clock() float64 { return l.s.sys.Clock() }

// Pending returns the number of injected requests waiting for admission.
func (l *Loop) Pending() int { return l.s.queue.Len() }

// NextArrival reports the earliest queued arrival and whether the wait
// queue holds any request. While the decode batch is empty the next
// Advance jumps the clock straight to this time, so a wall-clock pacing
// layer sleeps the dilated interval up front instead of discovering the
// jump after the fact.
func (l *Loop) NextArrival() (float64, bool) {
	if l.s.queue.Len() == 0 {
		return 0, false
	}
	return l.s.queue.Peek().Arrival, true
}

// Active returns the current decode-batch occupancy.
func (l *Loop) Active() int { return len(l.s.active) }

// GPUHeadroom returns the simulated GPU bytes currently free — the
// signal KV-pressure-aware cluster routers rank replicas by.
func (l *Loop) GPUHeadroom() int64 { return l.s.sys.GPUHeadroom() }

// Err returns the latched fatal or cancellation error, if any.
func (l *Loop) Err() error { return l.err }

// SetObserver replaces the loop's observer, effective from the next
// event: a callback may call it mid-turn, and the event being delivered
// finishes with the observer it started with.
func (l *Loop) SetObserver(obs events.Observer) { l.s.cfg.Observer = obs }

// gate rejects transitions on a finalized or failed loop.
func (l *Loop) gate() error {
	if l.finalized {
		return fmt.Errorf("serve: loop already finalized")
	}
	return l.err
}

// reserveStatic allocates the runtime reserve, the weights and a MaxBatch
// worth of activations.
func (s *server) reserveStatic() error {
	ctx := sched.Context{Sys: s.sys, Model: s.cfg.Model, Batch: s.cfg.MaxBatch}
	if err := ctx.ReserveStatic(false); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.staticGPU, s.staticCPU = s.sys.Usage()
	return nil
}

// turn is one step of the discrete-event engine: admit, decode one
// iteration, complete. It reports false when the loop is idle (nothing
// waiting, nothing active). Cancellation is checked once per turn; a
// cancelled turn releases every active sequence so the leak check still
// holds.
//
//alisa:hotpath
func (s *server) turn(ctx context.Context) (bool, error) {
	if s.queue.Len() == 0 && len(s.active) == 0 {
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, s.cancel(err)
	}
	// Idle with work only in the future: jump to the next arrival.
	if len(s.active) == 0 && s.queue.Peek().Arrival > s.sys.Clock() {
		s.sys.AdvanceTo(s.queue.Peek().Arrival)
		s.admissionBlockedHeadroom = -1
	}
	if err := s.admit(); err != nil {
		return false, err
	}
	if len(s.active) == 0 {
		// Admission failed on an empty system: the head request can
		// never run.
		return false, fmt.Errorf("serve: request %d unservable: prompt KV cannot be placed on an empty system: %w",
			s.queue.Peek().ID, s.lastAdmitErr)
	}
	if err := s.iterate(); err != nil {
		return false, err
	}
	return true, nil
}

// cancel tears a cancelled run down: every active sequence's KV is
// released exactly, then the accounting is leak-checked as at a normal
// end of run. It returns cause unless the accounting leaked.
func (s *server) cancel(cause error) error {
	for _, st := range s.active {
		st.sch.Release(st.ctx)
		s.cacheRelease(st)
	}
	s.active = s.active[:0]
	if err := s.checkLeak(); err != nil {
		return err
	}
	return cause
}

// checkLeak verifies usage returned exactly to the static reservations —
// plus, with the cache on, the cache's resident bytes, whose refcounts
// must all have returned to zero (every lease released).
func (s *server) checkLeak() error {
	wantGPU := s.staticGPU
	if s.cache != nil {
		if err := s.cache.CheckInvariants(true); err != nil {
			return fmt.Errorf("serve: prefix cache leak: %w", err)
		}
		wantGPU += s.cache.ResidentBytes()
	}
	if gpu, cpu := s.sys.Usage(); gpu != wantGPU || cpu != s.staticCPU {
		return fmt.Errorf("serve: KV accounting leak: usage gpu=%d cpu=%d, static gpu=%d cpu=%d",
			gpu, cpu, wantGPU, s.staticCPU)
	}
	return nil
}

// admit moves arrived requests from the wait queue into the decode batch,
// FCFS, until the batch cap or capacity stops it.
//
//alisa:hotpath
func (s *server) admit() error {
	for len(s.active) < s.cfg.MaxBatch && s.queue.Len() > 0 {
		if s.queue.Peek().Arrival > s.sys.Clock() {
			return nil
		}
		if s.admissionBlockedHeadroom >= 0 && s.sys.GPUHeadroom() <= s.admissionBlockedHeadroom {
			// Last probe failed and nothing was freed since; skip
			// re-probing until memory moves.
			return nil
		}
		// Pop the head before tryAdmit: its admission callbacks may
		// Inject, mutating the heap, and an injected arrival earlier than
		// req's must not displace the slot this admission is consuming. A
		// failed probe fires no callbacks, so requeueing under the
		// original ticket restores the exact head position.
		req, seq := s.queue.Pop()
		ok, err := s.tryAdmit(req, seq)
		if err != nil {
			return err
		}
		if !ok {
			s.queue.Requeue(req, seq)
			// Shed speculative cache before giving up on the head: evicting
			// unreferenced shared blocks frees real headroom, and a re-probe
			// with the same memory is pointless without it.
			if s.cacheRelieve(s.seqKVBytes(req.Input, req.Output)) {
				s.admissionBlockedHeadroom = -1
				continue
			}
			s.admissionBlockedHeadroom = s.sys.GPUHeadroom()
			return nil
		}
		s.admissionBlockedHeadroom = -1
	}
	return nil
}

// getSeq takes a recycled seqState (with its Context and scheduler) from
// the pool, or allocates the pool's newest member.
func (s *server) getSeq() *seqState {
	if n := len(s.seqPool); n > 0 {
		st := s.seqPool[n-1]
		s.seqPool = s.seqPool[:n-1]
		return st
	}
	return &seqState{sch: s.newSched(), ctx: &sched.Context{}}
}

// putSeq resets a retired seqState and returns it to the pool. The
// Context is zeroed; the scheduler is kept as it stands, released or
// after a failed Init, because the next admission's Init resets it.
func (s *server) putSeq(st *seqState) {
	ctx, sch := st.ctx, st.sch
	*ctx = sched.Context{}
	*st = seqState{sch: sch, ctx: ctx}
	s.seqPool = append(s.seqPool, st)
}

// tryAdmit prefills and places one request. A placement failure rolls the
// memory deltas back exactly (the loop is single-goroutine, so the
// snapshot diff is attributable) and reports ok=false; the clock cost of
// the aborted attempt stays charged, as a real engine's aborted prefill
// would.
//
//alisa:hotpath
func (s *server) tryAdmit(req workload.Request, seq uint64) (bool, error) {
	st := s.getSeq()
	ctx := st.ctx
	*ctx = sched.Context{
		Sys:          s.sys,
		Cost:         s.cost,
		Model:        s.cfg.Model,
		Batch:        1,
		Input:        req.Input,
		Output:       req.Output,
		CachingRatio: 1 - s.cfg.KVSparsity,
		KVBits:       s.cfg.KVBits,
	}

	cached := 0
	if s.cache != nil && len(req.Tokens) > 0 {
		cached = s.cache.Probe(req.Tokens)
		if cached >= req.Input {
			// A full hit still prefills the final block: the sequence's
			// first logits have to be computed from something.
			cached -= s.cfg.PrefixBlock
		}
	}
	gpuBefore, cpuBefore := s.sys.Usage()
	prefill := s.cost.PrefillTime(s.cfg.Model, 1, req.Input-cached)
	if cached > 0 {
		// Reuse is not free: the shared KV is copied into the sequence's
		// private allocation at HBM bandwidth.
		prefill += s.cost.PrefixReuse(int64(cached) * s.cacheTokenBytes).Seconds
	}
	s.sys.Charge(trace.CatPrefill, prefill)
	if err := st.sch.Init(ctx); err != nil {
		// Roll back whatever Init managed to place, keeping the cause for
		// the unservable diagnosis.
		gpuAfter, cpuAfter := s.sys.Usage()
		s.sys.FreeGPU(gpuAfter - gpuBefore)
		s.sys.FreeCPU(cpuAfter - cpuBefore)
		s.lastAdmitErr = err
		s.putSeq(st)
		return false, nil
	}

	s.prefillTokens += int64(req.Input - cached)
	if s.cache != nil && len(req.Tokens) > 0 {
		s.cache.CountProbe(cached)
		n, err := s.cacheAcquire(req.Tokens)
		if err != nil {
			return false, err
		}
		st.leaseLen = n
	}
	st.rec = RequestRecord{
		ID: req.ID, Arrival: req.Arrival, Input: req.Input, Output: req.Output,
		Admitted: s.sys.Clock() - prefill, FirstToken: s.sys.Clock(),
		Preemptions: s.ids[req.ID],
	}
	st.req, st.seq = req, seq
	s.active = append(s.active, st)
	if f := s.cfg.Observer.Admission; f != nil {
		adm := events.Admission{
			Request: req.ID, Clock: s.sys.Clock(), Wait: st.rec.Admitted - req.Arrival,
			Input: req.Input, Output: req.Output, Batch: len(s.active),
		}
		if s.cache != nil && len(req.Tokens) > 0 {
			adm.PrefixProbed = true
			adm.CachedTokens = cached
			adm.SharedBytes = s.cache.ResidentBytes()
		}
		f(adm)
	}
	// Prefill just finished: this is the request's first output token
	// (re-emitted after each readmission; the last one is the TTFT).
	if f := s.cfg.Observer.FirstToken; f != nil {
		f(events.FirstToken{Request: req.ID, Clock: s.sys.Clock(), TTFT: s.sys.Clock() - req.Arrival})
	}
	return true, nil
}

// iterate runs one continuous-batching decode iteration over the active
// batch: per-sequence placement plans, one fused ragged compute charge,
// then completions.
//
//alisa:hotpath
func (s *server) iterate() error {
	iteration := s.iterations
	startClock := s.sys.Clock()
	startBatch := len(s.active)
	s.iterations++
	s.batchSum += len(s.active)

	plans := s.plans[:0]
	// The active list is admission-ordered (appends only), so the
	// youngest sequence is always the last element — and therefore never
	// one that was already stepped this iteration.
	for i := 0; i < len(s.active); {
		st := s.active[i]
		plan, err := st.sch.Step(st.ctx, st.j)
		if err == nil {
			plans = append(plans, stepped{st, plan})
			i++
			continue
		}
		// Memory pressure: preempt the youngest-admitted sequence
		// (vLLM-style recompute preemption; the serving analogue of
		// ALISA's Phase III deletion under admission pressure), then
		// retry. The retry re-runs the whole Step, so any transfers the
		// failed attempt already charged stay on the clock and the PCIe
		// counters — deliberate: a real engine's aborted iteration also
		// consumed link bandwidth before re-issuing its fetches. A
		// sequence that fails alone can never finish. Unreferenced shared
		// cache blocks go first in either case: they are a speculative
		// speedup, live KV is work in flight.
		if s.cacheRelieve(s.seqKVBytes(st.req.Input, st.req.Output)) {
			continue
		}
		if len(s.active) == 1 {
			return fmt.Errorf("serve: request %d cannot be served even alone: %w", st.req.ID, err)
		}
		victim := s.active[len(s.active)-1]
		s.preempt(victim)
		// If st itself was the victim it is gone and i == len(active);
		// otherwise retry st with the freed memory. Either way i stands.
	}

	// Fused iteration compute: ragged attention + shared projections for
	// normally cached sequences; full forward passes for no-cache plans;
	// pooled recomputation and quantization charges.
	attended := s.attended[:0]
	recomputed, quantPos := 0, 0
	sparse := false
	for _, p := range plans {
		if p.plan.FullRecompute {
			s.sys.Charge(trace.CatFullForward, s.cost.PrefillTime(s.cfg.Model, 1, p.plan.Attended))
			continue
		}
		attended = append(attended, p.plan.Attended)
		recomputed += p.plan.RecomputedTokens
		quantPos += 1 + p.plan.FetchedTokens
		sparse = sparse || p.plan.Sparse
	}
	if len(attended) > 0 {
		s.sys.ChargeDecode(s.prices.Time(attended, sparse))
	}
	if recomputed > 0 {
		s.sys.Charge(trace.CatRecompute, s.cost.RecomputeTime(&s.cfg.Model, 1, recomputed))
	}
	if s.cfg.KVBits < 16 && quantPos > 0 {
		s.sys.Charge(trace.CatQuant, s.cost.Quantize(int64(quantPos)*s.kvTokenFP16).Seconds)
	}

	// Advance step counters and retire finished sequences. Token events
	// fire before the completion they may trigger, so a subscriber sees
	// every request's lifecycle close in order: ... token, completion.
	finished := 0
	for _, p := range plans {
		p.st.j++
		if f := s.cfg.Observer.Token; f != nil {
			f(events.Token{Request: p.st.req.ID, Clock: s.sys.Clock(), Index: p.st.j})
		}
		if p.st.j >= p.st.req.Output {
			s.complete(p.st)
			finished++
		}
	}
	if finished > 0 {
		// One order-preserving compaction retires every sequence complete
		// marked done, recycling it into the pool.
		out := s.active[:0]
		for _, st := range s.active {
			if st.done {
				s.putSeq(st)
			} else {
				out = append(out, st)
			}
		}
		for i := len(out); i < len(s.active); i++ {
			s.active[i] = nil
		}
		s.active = out
	}
	// Hand the (possibly grown) scratch back for the next iteration. The
	// retired seqStates plans still points at were recycled by the
	// compaction, so the truncation on entry is what drops those
	// references.
	s.plans, s.attended = plans, attended
	if f := s.cfg.Observer.Step; f != nil {
		f(events.Step{
			Step: iteration, Batch: startBatch,
			Clock: s.sys.Clock(), Seconds: s.sys.Clock() - startClock,
		})
	}
	return nil
}

// preempt releases every byte the victim (the last active sequence) holds
// and sends its request back to the head of the wait queue to restart from
// the prompt.
//
//alisa:hotpath
func (s *server) preempt(victim *seqState) {
	victim.sch.Release(victim.ctx)
	s.cacheRelease(victim)
	s.ids[victim.req.ID]++
	s.preemptions++
	if f := s.cfg.Observer.Preemption; f != nil {
		f(events.Preemption{Request: victim.req.ID, Clock: s.sys.Clock(), Generated: victim.j})
	}

	s.active = s.active[:len(s.active)-1]
	// Requeue under the original ticket: the (arrival, ticket) key
	// restores the request's FCFS position ahead of everything that
	// queued behind it, and a heap push into warm capacity allocates
	// nothing.
	s.queue.Requeue(victim.req, victim.seq)
	s.putSeq(victim)
	s.admissionBlockedHeadroom = -1
}

// complete retires a finished sequence: it frees the KV, closes the
// record, and folds it into the totals, then into kept on the exact path
// or the digests in scale mode. The sequence is only marked done here;
// iterate compacts the active list once after the completion sweep, so
// retiring k of b sequences costs O(b), not O(k·b).
//
//alisa:hotpath
func (s *server) complete(st *seqState) {
	st.sch.Release(st.ctx)
	s.cacheRelease(st)
	rec := &st.rec
	rec.Finished = s.sys.Clock()
	st.done = true
	s.admissionBlockedHeadroom = -1
	met := s.sloMet(rec)
	if f := s.cfg.Observer.Completion; f != nil {
		f(events.Completion{
			Request: st.req.ID, Clock: s.sys.Clock(),
			TTFT: rec.TTFT(), TPOT: rec.TPOT(),
			E2E: s.sys.Clock() - rec.Arrival, Output: st.req.Output,
			SLOMet:      met,
			Preemptions: rec.Preemptions,
		})
	}
	// Fold after the callback: an Inject from it that crosses the
	// threshold streams kept into the digests, and this record follows.
	s.tot.add(rec, met)
	if s.dig != nil {
		s.dig.observe(rec)
		delete(s.ids, rec.ID)
	} else {
		s.kept = append(s.kept, keptRecord{seq: st.seq, rec: *rec})
	}
}

// sloMet is the goodput criterion: the request met both service-level
// objectives. The one predicate serves the final metrics and the
// completion events' SLOMet field, so online windowed goodput can never
// diverge from the end-of-run numbers.
func (s *server) sloMet(rec *RequestRecord) bool {
	return rec.TTFT() <= s.cfg.SLOTTFT && rec.TPOT() <= s.cfg.SLOTPOT
}

// keptRecord is one completed record on the exact path, with its
// request's wait-queue ticket.
type keptRecord struct {
	seq uint64
	rec RequestRecord
}

// byTicket orders kept records by ticket, which is insertion order.
func byTicket(a, b keptRecord) int { return cmp.Compare(a.seq, b.seq) }

// totals are the run-level aggregates of every completion. Each is an
// integer sum or a maximum, so the order completions arrive in cannot
// change them.
type totals struct {
	completed, tokens int
	good, goodTokens  int
	makespan          float64
}

// add folds one completed record into the totals; met is its sloMet.
//
//alisa:hotpath
func (t *totals) add(rec *RequestRecord, met bool) {
	t.completed++
	t.tokens += rec.Output
	if met {
		t.good++
		t.goodTokens += rec.Output
	}
	if rec.Finished > t.makespan {
		t.makespan = rec.Finished
	}
}

// scaleDigests holds the three streaming latency digests of a scale-mode
// run: fixed-size state, with no per-request retention.
type scaleDigests struct {
	ttft, tpot, e2e *metrics.LatencyDigest
}

// clone deep-copies the digests for Loop.Fork.
func (d *scaleDigests) clone() *scaleDigests {
	return &scaleDigests{ttft: d.ttft.Clone(), tpot: d.tpot.Clone(), e2e: d.e2e.Clone()}
}

// observe streams one completed record's latencies into the digests.
//
//alisa:hotpath
func (d *scaleDigests) observe(rec *RequestRecord) {
	d.ttft.Observe(rec.TTFT())
	d.tpot.Observe(rec.TPOT())
	d.e2e.Observe(rec.Finished - rec.Arrival)
}

// enterScaleMode flips the run into streaming-digest mode: the kept
// records stream into the digests in insertion order — deterministic,
// since the switch itself fires at a deterministic injection count —
// and are dropped with their IDs, so ids indexes live requests only.
// From here on, complete streams each finish directly.
func (s *server) enterScaleMode() {
	s.dig = &scaleDigests{
		ttft: metrics.NewLatencyDigest(0),
		tpot: metrics.NewLatencyDigest(0),
		e2e:  metrics.NewLatencyDigest(0),
	}
	slices.SortFunc(s.kept, byTicket)
	for i := range s.kept {
		s.dig.observe(&s.kept[i].rec)
		delete(s.ids, s.kept[i].rec.ID)
	}
	s.kept = nil
}

// finalize computes the aggregate metrics: the totals in both modes,
// then the latency summaries from the kept records in insertion order
// on the exact path, or from the digests in scale mode.
func (s *server) finalize() {
	res := &Result{Scheduler: s.cfg.Scheduler, Breakdown: s.sys.Ledger()}
	s.res = res
	res.Preemptions = s.preemptions
	if s.iterations > 0 {
		res.MeanBatch = float64(s.batchSum) / float64(s.iterations)
	}
	res.PeakGPU, res.PeakCPU = s.sys.Peak()
	res.PrefillTokens = s.prefillTokens
	if s.cache != nil {
		res.PrefixHits, res.PrefixMisses, res.PrefixCachedTokens = s.cache.Stats()
		res.PrefixSharedBytes = s.prefixPeakBytes
	}

	t := &s.tot
	res.Completed = t.completed
	res.Makespan = t.makespan
	if t.makespan > 0 {
		res.Throughput = float64(t.tokens) / t.makespan
		res.Goodput = float64(t.goodTokens) / t.makespan
	}
	if t.completed > 0 {
		res.SLOAttainment = float64(t.good) / float64(t.completed)
	}

	if d := s.dig; d != nil {
		res.TTFT = d.ttft.Summary()
		res.TPOT = d.tpot.Summary()
		res.E2E = d.e2e.Summary()
		return
	}
	slices.SortFunc(s.kept, byTicket)
	n := len(s.kept)
	res.Requests = make([]RequestRecord, n)
	ttft := make([]float64, n)
	tpot := make([]float64, n)
	e2e := make([]float64, n)
	for i := range s.kept {
		rec := &s.kept[i].rec
		res.Requests[i] = *rec
		ttft[i] = rec.TTFT()
		tpot[i] = rec.TPOT()
		e2e[i] = rec.Finished - rec.Arrival
	}
	// One percentile scratch serves all three latency summaries.
	var scratch []float64
	res.TTFT, scratch = metrics.SummarizeInto(ttft, scratch)
	res.TPOT, scratch = metrics.SummarizeInto(tpot, scratch)
	res.E2E, _ = metrics.SummarizeInto(e2e, scratch)
}
