package serve

import (
	"fmt"

	"repro/internal/serve/prefix"
)

// This file wires the shared prefix KV cache (internal/serve/prefix)
// into the event loop. Every entry point is gated on s.cache != nil:
// with Config.PrefixBlock zero the loop never touches any of it, which
// is what keeps cache-off runs bit-identical to the pre-cache tree.
//
// Memory model: the cache owns one simulated GPU-resident copy of every
// shared block, mirrored into the memsim.System as it grows and
// shrinks, so shared bytes are accounted exactly once and occupied
// headroom squeezes admission like any other KV. Admitted requests
// still allocate their full private KV through their scheduler — the
// cache buys them the prefill time, not the bytes — and lease their
// matched path so it cannot be evicted while they run.

// newPrefixCache builds the loop's cache from the defaulted config.
// Called after reserveStatic, so the budget — a quarter of the
// post-reservation headroom — sees the true free pool.
func (s *server) newPrefixCache() {
	if s.cfg.PrefixBlock <= 0 {
		return
	}
	tokenBytes := s.kvTokenFP16
	if s.cfg.KVBits < 16 {
		// The cache stores blocks at serving precision.
		tokenBytes = tokenBytes * int64(s.cfg.KVBits) / 16
	}
	blockBytes := int64(s.cfg.PrefixBlock) * tokenBytes
	budget := max(s.sys.GPUHeadroom()/4, blockBytes)
	s.cacheTokenBytes = tokenBytes
	s.cache = prefix.NewIndex(s.cfg.PrefixBlock, blockBytes, budget)
}

// cacheAcquire grafts the request's block-aligned prompt prefix into
// the shared cache — best-effort under the byte budget and current GPU
// headroom, evicting LRU refcount-0 blocks to make room — and leases
// the resulting resident path for the sequence's lifetime. It returns
// the leased token length, released again by cacheRelease.
//
//alisa:hotpath
func (s *server) cacheAcquire(tokens []int) (int, error) {
	added, freed := s.cache.Insert(tokens, s.sys.GPUHeadroom(), s.sys.Clock())
	if freed > 0 {
		s.sys.FreeGPU(freed)
	}
	if added > 0 {
		// Insert bounds net growth by the headroom passed in, so after the
		// eviction refund this allocation cannot fail.
		if err := s.sys.AllocGPU(added); err != nil {
			return 0, fmt.Errorf("serve: prefix cache grew past GPU headroom: %w", err)
		}
	}
	if rb := s.cache.ResidentBytes(); rb > s.prefixPeakBytes {
		s.prefixPeakBytes = rb
	}
	return s.cache.Lease(tokens), nil
}

// cacheRelease returns a retired sequence's lease. Safe on sequences
// that never leased (leaseLen 0, the cache-off case included).
//
//alisa:hotpath
func (s *server) cacheRelease(st *seqState) {
	if st.leaseLen > 0 {
		s.cache.Release(st.req.Tokens[:st.leaseLen], s.sys.Clock())
		st.leaseLen = 0
	}
}

// cacheRelieve responds to memory pressure: it evicts least-recently-
// used refcount-0 cache blocks until target bytes are freed (or nothing
// evictable remains) and returns whether any memory moved. The serving
// loop prefers shedding cache over preempting a sequence or declaring a
// request unservable — cached blocks are a speculative speedup, live KV
// is work in flight.
//
//alisa:hotpath
func (s *server) cacheRelieve(target int64) bool {
	if s.cache == nil {
		return false
	}
	var freed int64
	for freed < target {
		n := s.cache.EvictOne()
		if n == 0 {
			break
		}
		freed += n
	}
	if freed == 0 {
		return false
	}
	s.sys.FreeGPU(freed)
	return true
}

// seqKVBytes estimates one request's full dense KV footprint — the
// eviction target when that request cannot be placed.
//
//alisa:hotpath
func (s *server) seqKVBytes(input, output int) int64 {
	return int64(input+output) * s.kvTokenFP16
}
