// Package cluster is the fleet layer above internal/serve: N independent
// serve.Loop replicas driven behind a pluggable front-end router, with a
// windowed-metrics autoscaler on top. One engine simulates one GPU; this
// package simulates the system level the KV-cache-management literature
// frames above per-GPU scheduling — request routing across replicas,
// heterogeneous hardware tiers, and capacity that follows load.
//
// The whole fleet is one discrete-event simulation: replicas keep
// independent virtual clocks, and the fleet advances whichever busy
// replica is furthest behind (ties to the lowest replica ID), so a run
// is a deterministic function of (seed, fleet config) — the same
// single-goroutine discipline as serve.Loop, and the property the
// bit-identity tests pin under -race.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/workload"
)

// ReplicaView is the router's read-only view of one live replica at
// routing time: identity, tier, queue state, and KV pressure. Views are
// ordered by replica ID and contain live (non-retired) replicas only.
type ReplicaView struct {
	// ID is the replica's fleet-unique identity. IDs are never reused —
	// a replica added by the autoscaler gets a fresh ID — so affinity
	// hashing stays stable across scale events.
	ID int
	// Tier is the replica's hardware profile name (e.g. "V100-16GB").
	Tier string
	// Pending and Active are the replica's wait-queue depth and current
	// decode-batch occupancy.
	Pending int
	Active  int
	// MaxBatch is the replica's decode-batch cap.
	MaxBatch int
	// Clock is the replica's simulated time in seconds.
	Clock float64
	// GPUHeadroom is the simulated GPU bytes currently free on the
	// replica; GPUCapacity is its total HBM. Together they give the
	// KV-pressure fraction heterogeneous fleets compare by.
	GPUHeadroom int64
	GPUCapacity int64
}

// Outstanding returns the replica's total in-system request count — the
// load signal queue-depth routing balances.
func (v ReplicaView) Outstanding() int { return v.Pending + v.Active }

// Router picks the replica each arriving request is dispatched to.
// Pick returns an index into views (not a replica ID); views is never
// empty. Routers may keep internal state (a round-robin cursor) — each
// cluster owns a private instance from RouterByName — but must
// be deterministic: the same request/view sequence must produce the same
// picks, because fleet results are pinned bit-identical in (seed, config).
type Router interface {
	Name() string
	Pick(req workload.Request, views []ReplicaView) int
}

// Factory constructs a fresh Router instance; each cluster gets its own,
// so stateful policies never share cursors across fleets.
type Factory func() Router

// routers maps policy names to factories. It is a fixed table, never
// written after package initialization, so lookups need no lock.
var routers = map[string]Factory{
	"round-robin":       func() Router { return &roundRobin{} },
	"least-outstanding": func() Router { return argmax{"least-outstanding", negOutstanding} },
	"least-kv":          func() Router { return argmax{"least-kv", kvFreeFrac} },
	"affinity":          func() Router { return rendezvous{"affinity", requestKey} },
	"prefix-affinity":   func() Router { return rendezvous{"prefix-affinity", prefixKey} },
}

// RouterByName instantiates a routing policy by name.
func RouterByName(name string) (Router, error) {
	f, ok := routers[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown router %q (known: %s)", name, strings.Join(Routers(), ", "))
	}
	return f(), nil
}

// Routers returns the policy names, sorted.
func Routers() []string {
	names := make([]string, 0, len(routers))
	for n := range routers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// roundRobin cycles through the live replicas in ID order. The cursor
// counts dispatches, not positions, so the rotation stays well-defined
// when the autoscaler grows or shrinks the view slice between picks.
type roundRobin struct{ n uint64 }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Pick(_ workload.Request, views []ReplicaView) int {
	i := int(r.n % uint64(len(views)))
	r.n++
	return i
}

// argmax dispatches to the replica with the highest score, ties to the
// lowest replica ID. Two policies are scores:
//   - least-outstanding scores the negated in-system request count
//     (queued + in batch): classic least-connections balancing, which
//     tracks load directly instead of assuming homogeneous replicas;
//   - least-kv scores the free-KV fraction (GPU headroom over
//     capacity). The fraction — not the absolute byte count — is what
//     makes a mixed fleet fair: a half-empty 16G card beats a
//     nearly-full 80G card even though the latter has more bytes free.
type argmax struct {
	name  string
	score func(ReplicaView) float64
}

func (a argmax) Name() string { return a.name }

func (a argmax) Pick(_ workload.Request, views []ReplicaView) int {
	best, bestScore := 0, a.score(views[0])
	for i := 1; i < len(views); i++ {
		if s := a.score(views[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// negOutstanding is least-outstanding's score.
func negOutstanding(v ReplicaView) float64 { return -float64(v.Outstanding()) }

// kvFreeFrac is least-kv's score, the replica's free-GPU fraction; a
// degenerate capacity ranks last.
func kvFreeFrac(v ReplicaView) float64 {
	if v.GPUCapacity <= 0 {
		return -1
	}
	return float64(v.GPUHeadroom) / float64(v.GPUCapacity)
}

// rendezvous pins each request key to a replica by rendezvous
// (highest-random-weight) hashing over the live replica IDs: the chosen
// replica is the one whose (key, ID) hash scores highest. Session and
// prefix caches love this policy — a key always lands on the same
// replica while that replica lives, and when the autoscaler adds or
// removes a replica only the keys whose winner changed move (~1/N of
// them), instead of the wholesale reshuffle modulo hashing causes. Two
// policies are keys:
//   - affinity keys on the request ID, the session identity in this
//     simulator;
//   - prefix-affinity keys on the prompt prefix (prefixKey), so requests
//     that share one — a conversation's turns, an agent fleet's common
//     tool preamble — land on the replica whose prefix cache already
//     holds their blocks. That turns per-replica caching into a
//     fleet-level hit rate: replicas keep independent caches, and the
//     router is the only cross-replica sharing mechanism.
type rendezvous struct {
	name string
	key  func(workload.Request) uint64
}

func (r rendezvous) Name() string { return r.name }

func (r rendezvous) Pick(req workload.Request, views []ReplicaView) int {
	key := r.key(req)
	best, bestScore := 0, rendezvousScore(key, views[0].ID)
	for i := 1; i < len(views); i++ {
		if s := rendezvousScore(key, views[i].ID); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// requestKey is affinity's key, the request ID.
func requestKey(req workload.Request) uint64 { return uint64(req.ID) }

// prefixPinTokens bounds how many leading token IDs prefixKey hashes:
// enough to tell conversations (distinct system prompts) apart, cheap
// enough to stay off the routing hot path's conscience.
const prefixPinTokens = 64

// prefixKey is prefix-affinity's key: the request's leading token IDs
// hashed with FNV-1a. A token-less request keys on its ID, degrading to
// plain affinity.
func prefixKey(req workload.Request) uint64 {
	if len(req.Tokens) == 0 {
		return uint64(req.ID)
	}
	n := len(req.Tokens)
	if n > prefixPinTokens {
		n = prefixPinTokens
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, tok := range req.Tokens[:n] {
		putU64(buf[:], uint64(tok))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// rendezvousScore hashes (key, replica ID) with FNV-1a. 64-bit FNV over
// the two little-endian words is cheap, stable across runs, and spreads
// keys evenly enough for fleet balancing.
func rendezvousScore(key uint64, replicaID int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	putU64(buf[:8], key)
	putU64(buf[8:], uint64(replicaID))
	h.Write(buf[:])
	return h.Sum64()
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
