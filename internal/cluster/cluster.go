package cluster

import (
	"context"
	"fmt"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
)

// DefaultWindow is the fleet rolling-window capacity when Config.Window
// is zero — the population the autoscaler and Snapshot digest.
const DefaultWindow = 64

// Config specifies one fleet simulation.
type Config struct {
	// Replicas are the initial fleet members, one serve.Config each.
	// Mixed profiles are allowed — that is the heterogeneous-fleet case —
	// and each replica's Observer (if any) receives that replica's events
	// after the fleet's own metrics tap.
	Replicas []serve.Config

	// Router selects the routing policy by name ("" → "round-robin").
	Router string

	// Window is the fleet rolling completion window capacity
	// (0 → DefaultWindow). The window digests completions in fleet
	// scheduling order — the deterministic order replicas are advanced —
	// and drives both Snapshot and the autoscaler.
	Window int

	// Autoscale, when non-nil, lets the fleet grow and shrink at runtime;
	// see the Autoscale type. A scale-up builds a fresh loop from replica
	// 0's config.
	Autoscale *Autoscale
}

// Validate reports the first invalid fleet-level field; per-replica
// serve configs are validated by serve.NewLoop itself.
func (c Config) Validate() error {
	if len(c.Replicas) == 0 {
		return fmt.Errorf("cluster: at least one replica required")
	}
	if c.Window < 0 {
		return fmt.Errorf("cluster: negative metrics window %d", c.Window)
	}
	if c.Autoscale != nil {
		if err := c.Autoscale.validate(len(c.Replicas)); err != nil {
			return err
		}
	}
	return nil
}

// replica is one fleet member: a serve.Loop plus the fleet's bookkeeping
// about it.
type replica struct {
	id   int
	tier string
	cfg  serve.Config
	loop *serve.Loop
	// window is the replica's own rolling completion window — the
	// per-replica counterpart of the fleet window.
	window *metrics.Window
	// routed counts requests dispatched to this replica; the counters
	// below accumulate its completions for the fleet roll-up.
	routed     int
	completed  int
	tokens     int64
	goodTokens int64
	sloMet     int
	// lastBusy is the replica's clock when it last held work; the
	// autoscaler retires replicas whose idle span exceeds IdleAfter.
	lastBusy float64
	// forked marks autoscaler-added replicas.
	forked  bool
	retired bool
	// result is set when the replica is finalized (retirement or fleet
	// close).
	result *serve.Result
}

func (r *replica) busy() bool { return r.loop.Pending() > 0 || r.loop.Active() > 0 }

// view projects the replica into the router's read-only view.
func (r *replica) view() ReplicaView {
	return ReplicaView{
		ID:          r.id,
		Tier:        r.tier,
		Pending:     r.loop.Pending(),
		Active:      r.loop.Active(),
		MaxBatch:    r.cfg.MaxBatch,
		Clock:       r.loop.Clock(),
		GPUHeadroom: r.loop.GPUHeadroom(),
		GPUCapacity: r.cfg.Profile.GPUMemBytes,
	}
}

// Cluster is a live fleet: replicas behind the configured router,
// advanced as one discrete-event simulation. Like serve.Loop and the
// public Session it is single-goroutine — Push, Advance, Snapshot, and
// Close must not race — and a fleet fed the same request sequence
// produces bit-identical results.
type Cluster struct {
	cfg    Config
	router Router
	window *metrics.Window

	replicas []*replica
	nextID   int

	// lastScale is the fleet frontier at the last autoscale action;
	// scaleUps/scaleDowns and peak feed the result.
	lastScale    float64
	scaleUps     int
	scaleDowns   int
	peakReplicas int

	pushed int
	err    error
	closed bool
	result *Result
}

// New validates the fleet configuration and builds an idle cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Router
	if name == "" {
		name = "round-robin"
	}
	router, err := RouterByName(name)
	if err != nil {
		return nil, err
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	c := &Cluster{
		cfg:    cfg,
		router: router,
		window: metrics.NewWindow(cfg.Window),
	}
	for _, rc := range cfg.Replicas {
		if _, err := c.addReplica(rc, false); err != nil {
			return nil, err
		}
	}
	c.peakReplicas = len(c.replicas)
	return c, nil
}

// addReplica builds one replica's loop with the fleet tap chained in
// front of the config's own observer. forked marks an autoscaler
// scale-up.
func (c *Cluster) addReplica(rc serve.Config, forked bool) (*replica, error) {
	r := &replica{
		id:     c.nextID,
		tier:   rc.Profile.Name,
		cfg:    rc,
		window: metrics.NewWindow(c.cfg.Window),
		forked: forked,
	}
	rc.Observer = events.Multi(c.fleetTap(r), rc.Observer)
	loop, err := serve.NewLoop(rc)
	if err != nil {
		return nil, err
	}
	r.loop = loop
	c.nextID++
	c.replicas = append(c.replicas, r)
	return r, nil
}

// live appends the views of the non-retired replicas into buf.
func (c *Cluster) live(buf []ReplicaView) []ReplicaView {
	for _, r := range c.replicas {
		if !r.retired {
			buf = append(buf, r.view())
		}
	}
	return buf
}

// Size returns the live (non-retired) replica count.
func (c *Cluster) Size() int {
	n := 0
	for _, r := range c.replicas {
		if !r.retired {
			n++
		}
	}
	return n
}

// Pending and InFlight aggregate queue depth and decode occupancy over
// the live fleet.
func (c *Cluster) Pending() int {
	n := 0
	for _, r := range c.replicas {
		if !r.retired {
			n += r.loop.Pending()
		}
	}
	return n
}

// InFlight returns the fleet-wide decode-batch occupancy.
func (c *Cluster) InFlight() int {
	n := 0
	for _, r := range c.replicas {
		if !r.retired {
			n += r.loop.Active()
		}
	}
	return n
}

// Idle reports whether no live replica holds work.
func (c *Cluster) Idle() bool {
	for _, r := range c.replicas {
		if !r.retired && r.busy() {
			return false
		}
	}
	return true
}

// Frontier is the fleet's causal clock: the minimum simulated time among
// busy replicas — no event before it can still be produced — or, when
// the fleet is idle, the maximum replica clock reached.
func (c *Cluster) Frontier() float64 {
	frontier, any := 0.0, false
	maxClock := 0.0
	for _, r := range c.replicas {
		if r.retired {
			continue
		}
		clk := r.loop.Clock()
		if clk > maxClock {
			maxClock = clk
		}
		if r.busy() && (!any || clk < frontier) {
			frontier, any = clk, true
		}
	}
	if !any {
		return maxClock
	}
	return frontier
}

// Push routes one request through the configured policy and injects it
// into the chosen replica. Like Session.Push, the arrival may lie in the
// future (the replica jumps its clock when idle) or in the past
// (immediately due); request IDs must be unique fleet-wide because
// routing is sticky — a request lives on one replica. A refused request
// returns its error and leaves the fleet as it was, so later pushes
// and turns carry on; only a router picking a replica that does not
// exist fails the fleet.
func (c *Cluster) Push(req workload.Request) error {
	if c.closed {
		return fmt.Errorf("cluster: fleet closed")
	}
	if c.err != nil {
		return c.err
	}
	// Refuse a malformed request before the router sees it, so routing
	// state (a round-robin cursor) stays where it was.
	for _, r := range c.replicas {
		if !r.retired {
			if err := serve.CheckRequest(req, r.cfg.Model.MaxSeq); err != nil {
				return err
			}
		}
	}
	views := c.live(make([]ReplicaView, 0, len(c.replicas)))
	idx := c.router.Pick(req, views)
	if idx < 0 || idx >= len(views) {
		c.err = fmt.Errorf("cluster: router %q picked replica index %d of %d", c.router.Name(), idx, len(views))
		return c.err
	}
	r := c.replicaByID(views[idx].ID)
	if err := r.loop.Inject(req); err != nil {
		return err
	}
	r.routed++
	c.pushed++
	return nil
}

func (c *Cluster) replicaByID(id int) *replica {
	for _, r := range c.replicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// Advance runs one fleet turn: the busy replica furthest behind in
// simulated time (ties to the lowest ID) advances one event-loop turn,
// then the autoscaler gets one look. false with a nil error means the
// fleet is idle — everything pushed has completed. Errors latch, exactly
// as on serve.Loop.
func (c *Cluster) Advance(ctx context.Context) (bool, error) {
	if c.closed {
		return false, fmt.Errorf("cluster: fleet closed")
	}
	return c.advance(ctx)
}

// advance is one fleet turn without the closed gate; Close's drain uses
// it directly.
//
//alisa:hotpath
func (c *Cluster) advance(ctx context.Context) (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	var pick *replica
	for _, r := range c.replicas {
		if r.retired || !r.busy() {
			continue
		}
		if pick == nil || r.loop.Clock() < pick.loop.Clock() {
			pick = r
		}
	}
	if pick == nil {
		return false, nil
	}
	progressed, err := pick.loop.Advance(ctx)
	if err != nil {
		c.err = err
		return false, err
	}
	if pick.busy() {
		pick.lastBusy = pick.loop.Clock()
	}
	if err := c.autoscaleStep(ctx); err != nil {
		c.err = err
		return false, err
	}
	return progressed, nil
}

// Close drains the fleet — every routed request runs to completion —
// finalizes each replica, and rolls the fleet Result up. On context
// cancellation the partial result over completed requests is returned
// alongside the error, mirroring Session.Close; other fatal errors
// return a nil result. Close is idempotent.
func (c *Cluster) Close(ctx context.Context) (*Result, error) {
	if c.closed {
		return c.result, c.err
	}
	c.closed = true
	for c.err == nil {
		progressed, err := c.advance(ctx)
		if err != nil || !progressed {
			break
		}
	}
	if c.err == nil {
		// Each idle replica's Drain runs serve's end-of-run leak check:
		// KV accounting must have returned exactly to the static
		// reservations on every fleet member.
		for _, r := range c.replicas {
			if r.result == nil {
				if err := r.loop.Drain(ctx); err != nil {
					c.err = err
					break
				}
			}
		}
	}
	if c.err != nil && !serve.IsCancellation(c.err) {
		return nil, c.err
	}
	c.finalizeReplicas()
	c.result = c.rollup()
	return c.result, c.err
}

// finalizeReplicas finalizes every live replica; retired replicas were
// finalized at retirement.
func (c *Cluster) finalizeReplicas() {
	for _, r := range c.replicas {
		if r.result == nil {
			r.result = r.loop.Finalize()
		}
	}
}

// Snapshot digests the fleet rolling completion window — the online
// fleet-level view between turns, and the signal the autoscaler acts on.
func (c *Cluster) Snapshot() metrics.WindowSnapshot { return c.window.Snapshot() }

// ReplicaStatus is the per-replica counterpart of Snapshot: the live
// routing view plus the replica's own rolling window digest.
type ReplicaStatus struct {
	ReplicaView
	Retired bool
	// Forked marks replicas the autoscaler added at runtime, each a
	// fresh loop built from replica 0's config.
	Forked bool
	Routed int
	Window metrics.WindowSnapshot
}

// Status returns one entry per replica ever in the fleet, in ID order,
// retired members included.
func (c *Cluster) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(c.replicas))
	for _, r := range c.replicas {
		out = append(out, ReplicaStatus{
			ReplicaView: r.view(),
			Retired:     r.retired,
			Forked:      r.forked,
			Routed:      r.routed,
			Window:      r.window.Snapshot(),
		})
	}
	return out
}

// fleetTap is replica r's fleet-side observer: prefix-probed admissions
// and completions feed the replica and fleet windows, and completions
// the roll-up counters, before the event reaches the replica config's
// own observer (the Multi in addReplica orders the fleet tap first,
// mirroring the session's window-tap-first contract).
func (c *Cluster) fleetTap(r *replica) events.Observer {
	return events.Observer{
		Admission: func(e events.Admission) {
			if e.PrefixProbed {
				r.window.ObservePrefix(e.CachedTokens, e.SharedBytes)
				c.window.ObservePrefix(e.CachedTokens, e.SharedBytes)
			}
		},
		Completion: func(e events.Completion) {
			r.window.Observe(e.Clock, e.TTFT, e.TPOT, e.E2E, e.Output, e.SLOMet)
			c.window.Observe(e.Clock, e.TTFT, e.TPOT, e.E2E, e.Output, e.SLOMet)
			r.completed++
			r.tokens += int64(e.Output)
			if e.SLOMet {
				r.goodTokens += int64(e.Output)
				r.sloMet++
			}
		},
	}
}

// Replay drives a trace through a fresh fleet and closes it: requests
// are pushed in arrival order the moment the fleet frontier reaches them
// (or immediately when the fleet is idle, jumping the clock), so routing
// decisions are causal — the router sees replica state as of each
// arrival, not a fully pre-loaded fleet. The front-end therefore
// dispatches at turn boundaries: a request arriving mid-turn (during
// another request's prefill, say) is routed before the next turn, which
// is why a one-replica fleet matches a turn-boundary-driven serve.Loop
// bit for bit rather than serve.Run's pre-seeded queue. This is the
// offline load-curve driver the CLI, bench harness, and determinism
// tests all share.
func Replay(ctx context.Context, cfg Config, tr workload.Trace) (*Result, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	next := 0
	for {
		if next < len(tr) && (tr[next].Arrival <= c.Frontier() || c.Idle()) {
			if err := c.Push(tr[next]); err != nil {
				return nil, err
			}
			next++
			continue
		}
		progressed, err := c.Advance(ctx)
		if err != nil || (!progressed && next >= len(tr)) {
			break
		}
	}
	return c.Close(ctx)
}
