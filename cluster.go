package alisa

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/memsim"
)

// ClusterAutoscale is the fleet capacity policy — scale-up on windowed
// SLO attainment below target, scale-down on sustained idle, within
// [Min, Max] (see cluster.Autoscale for field semantics).
type ClusterAutoscale = cluster.Autoscale

// ClusterResult is the fleet outcome: per-replica serving results plus
// fleet-level aggregates and the autoscaler trail.
type ClusterResult = cluster.Result

// ClusterReplicaResult is one fleet member's slice of a ClusterResult.
type ClusterReplicaResult = cluster.ReplicaResult

// ReplicaView is the router's read-only view of one live replica:
// identity, tier, queue state, and KV pressure.
type ReplicaView = cluster.ReplicaView

// ClusterReplicaStatus pairs a replica's live view with its rolling
// window digest — the per-replica counterpart of Cluster.Snapshot.
type ClusterReplicaStatus = cluster.ReplicaStatus

// ClusterRouters returns the routing-policy names, sorted: affinity,
// least-kv, least-outstanding, prefix-affinity, round-robin.
func ClusterRouters() []string { return cluster.Routers() }

// ClusterSpec sizes and shapes a fleet for OpenCluster / ServeCluster.
// Every replica runs the engine's compiled configuration; Profiles
// optionally overrides hardware per replica for heterogeneous fleets.
type ClusterSpec struct {
	// Replicas is the initial fleet size; must be at least 1.
	Replicas int
	// Profiles, when non-empty, assigns replica i the named profile
	// Profiles[i mod len(Profiles)] — cycling, so two names alternate
	// tiers across any fleet size. Empty keeps the engine's compiled
	// profile on every replica.
	Profiles []string
	// Router names the routing policy ("" → "round-robin").
	Router string
	// Autoscale, when non-nil, lets the fleet grow and shrink at
	// runtime; each scale-up builds a fresh replica loop from replica
	// 0's configuration.
	Autoscale *ClusterAutoscale
}

// Cluster is the fleet counterpart of Session: N replica serving loops
// behind the configured router, driven as one deterministic
// discrete-event simulation. Push routes and injects a request, Advance
// runs one fleet turn (the busy replica furthest behind in simulated
// time), Snapshot and Status expose fleet- and replica-level windowed
// metrics between turns, and Close drains everything and returns the
// final ClusterResult. Like Session, a Cluster is single-goroutine.
type Cluster struct {
	eng   *Engine
	ctx   context.Context
	fleet *cluster.Cluster
}

// OpenCluster builds an idle fleet of the engine's compiled
// configuration, sized and routed by spec. The engine's Observer (if
// any) receives every replica's streamed events after the fleet's own
// metrics tap, exactly as Session orders the engine observer first.
// Cancelling ctx mid-run latches the cancellation on the next
// transition, mirroring Session.
func (e *Engine) OpenCluster(ctx context.Context, spec ClusterSpec) (*Cluster, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := e.clusterConfig(spec)
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{eng: e, ctx: ctx, fleet: fleet}, nil
}

// clusterConfig projects the compiled engine state onto a fleet config.
func (e *Engine) clusterConfig(spec ClusterSpec) (cluster.Config, error) {
	if spec.Replicas < 1 {
		return cluster.Config{}, &ConfigError{Field: "Replicas", Value: spec.Replicas, Reason: "fleet needs at least one replica"}
	}
	if spec.Router != "" {
		if _, err := cluster.RouterByName(spec.Router); err != nil {
			return cluster.Config{}, &ConfigError{Field: "Router", Value: spec.Router, Reason: err.Error()}
		}
	}
	cfg := cluster.Config{
		Router: spec.Router,
		Window: e.metricsWindow,
	}
	for i := 0; i < spec.Replicas; i++ {
		rc := e.serveConfig(nil, e.observer)
		if len(spec.Profiles) > 0 {
			name := spec.Profiles[i%len(spec.Profiles)]
			prof, err := memsim.ProfileByName(name)
			if err != nil {
				return cluster.Config{}, &ConfigError{Field: "Profile", Value: name, Reason: err.Error()}
			}
			rc.Profile = prof
		}
		cfg.Replicas = append(cfg.Replicas, rc)
	}
	if spec.Autoscale != nil {
		as := *spec.Autoscale
		cfg.Autoscale = &as
		// Validate eagerly so the error carries the public field name
		// instead of failing deep inside cluster.New.
		if err := cfg.Validate(); err != nil {
			return cluster.Config{}, &ConfigError{Field: "Autoscale", Value: fmt.Sprintf("%+v", as), Reason: err.Error()}
		}
	}
	return cfg, nil
}

// Push routes one request through the fleet's policy and injects it into
// the chosen replica. Arrival and error semantics match Session.Push: a
// refused request returns its error and leaves the fleet unchanged.
// Request IDs must be unique fleet-wide.
func (c *Cluster) Push(req Request) error { return c.fleet.Push(req) }

// Advance runs one fleet turn: the busy replica furthest behind in
// simulated time advances one event-loop turn and the autoscaler gets
// one look. false with a nil error means the whole fleet is idle.
func (c *Cluster) Advance() (bool, error) { return c.fleet.Advance(c.ctx) }

// Frontier returns the fleet's causal clock: the minimum simulated time
// among busy replicas, or the maximum replica clock when idle.
func (c *Cluster) Frontier() float64 { return c.fleet.Frontier() }

// Size returns the live replica count; Pending and InFlight aggregate
// queue depth and decode occupancy across the live fleet.
func (c *Cluster) Size() int { return c.fleet.Size() }

// Pending returns the fleet-wide admission-queue depth.
func (c *Cluster) Pending() int { return c.fleet.Pending() }

// InFlight returns the fleet-wide decode-batch occupancy.
func (c *Cluster) InFlight() int { return c.fleet.InFlight() }

// Snapshot digests the fleet's rolling completion window — the online
// fleet-level view between turns, and the autoscaler's input signal.
func (c *Cluster) Snapshot() WindowSnapshot { return c.fleet.Snapshot() }

// Status returns one entry per replica ever in the fleet (retired
// members included), each pairing the live routing view with that
// replica's own rolling window digest.
func (c *Cluster) Status() []ClusterReplicaStatus { return c.fleet.Status() }

// Close drains the fleet — every routed request runs to completion —
// leak-checks and finalizes each replica, and returns the rolled-up
// ClusterResult. Cancellation returns the partial result alongside the
// error, exactly as Session.Close; Close is idempotent.
func (c *Cluster) Close() (*ClusterResult, error) { return c.fleet.Close(c.ctx) }

// ServeCluster replays a trace through a fresh fleet and closes it: the
// offline fleet counterpart of Engine.Serve, and the driver behind the
// cluster CLI's load curves. Requests are routed in arrival order as the
// fleet frontier reaches them, so the router sees replica state as of
// each arrival; results are deterministic in (trace, spec) and
// bit-identical across repeated and concurrent runs.
func (e *Engine) ServeCluster(ctx context.Context, spec ClusterSpec, trace TraceWorkload) (*ClusterResult, error) {
	if len(trace) == 0 {
		return nil, &ConfigError{Field: "Trace", Value: trace, Reason: "trace must be non-empty"}
	}
	cfg, err := e.clusterConfig(spec)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return cluster.Replay(ctx, cfg, trace)
}
