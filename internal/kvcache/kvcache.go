// Package kvcache provides the KV-tensor placement bookkeeping for the
// three caching granularities the paper compares (Table I):
//
//   - TokenStore — ALISA's token-level placement: every token position is
//     individually on GPU, on CPU, or deleted (recomputable).
//   - BlockStore — vLLM-style paged blocks: fixed groups of tokens move
//     between devices as units, with partial-block allocation overhead.
//   - HeadStore — FlexGen-style head-level static split: a fixed fraction
//     of every token's KV lives on each device for the whole run.
//
// Stores track logical placement and byte accounting; the memsim system
// charges the actual transfer times.
package kvcache

import "fmt"

// Location says where a token's KV tensors currently live.
type Location uint8

// Locations of KV tensors.
const (
	GPU Location = iota
	CPU
	Deleted
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case GPU:
		return "gpu"
	case CPU:
		return "cpu"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("location(%d)", uint8(l))
}

// TokenStore tracks per-token-position KV placement for a batch whose
// sequences advance in lockstep (the paper's system evaluation setting).
// Position i covers the KV of token i in every sequence of the batch.
type TokenStore struct {
	loc    []Location
	counts [3]int

	// cursor and before are CountsBefore's prefix cursor: before holds
	// the location counts of positions [0, cursor), and Move keeps them
	// exact.
	cursor int
	before [3]int
}

// NewTokenStore returns an empty token-level store.
func NewTokenStore() *TokenStore { return &TokenStore{} }

// Len returns the number of token positions tracked (including deleted).
func (s *TokenStore) Len() int { return len(s.loc) }

// Clone returns an independent deep copy of the store, for scheduler
// forking.
func (s *TokenStore) Clone() *TokenStore {
	c := *s
	c.loc = append([]Location(nil), s.loc...)
	return &c
}

// Append adds a new token position at the given location and returns its
// index.
func (s *TokenStore) Append(loc Location) int {
	s.loc = append(s.loc, loc)
	s.counts[loc]++
	return len(s.loc) - 1
}

// Loc returns the location of position i.
func (s *TokenStore) Loc(i int) Location {
	s.check(i)
	return s.loc[i]
}

// Move relocates position i to the given location. Moving a deleted token
// back to GPU models recomputation.
func (s *TokenStore) Move(i int, to Location) {
	s.check(i)
	from := s.loc[i]
	if from == to {
		return
	}
	s.counts[from]--
	s.counts[to]++
	if i < s.cursor {
		s.before[from]--
		s.before[to]++
	}
	s.loc[i] = to
}

// Count returns how many positions live at loc.
func (s *TokenStore) Count(loc Location) int { return s.counts[loc] }

// Counts returns the populations of all three locations at once — the
// partition the byte-accounting invariants are stated over.
func (s *TokenStore) Counts() (gpu, cpu, deleted int) {
	return s.counts[GPU], s.counts[CPU], s.counts[Deleted]
}

// Bytes returns the resident byte totals of the sequence at tokenBytes per
// position. Deleted positions hold no memory.
func (s *TokenStore) Bytes(tokenBytes int64) (gpu, cpu int64) {
	if tokenBytes < 0 {
		panic(fmt.Sprintf("kvcache: negative token bytes %d", tokenBytes))
	}
	return int64(s.counts[GPU]) * tokenBytes, int64(s.counts[CPU]) * tokenBytes
}

// Reset empties the store, releasing its positions for reuse — the
// free-on-completion hook of the serving loop. The backing array is
// retained so a recycled sequence reallocates nothing.
func (s *TokenStore) Reset() {
	s.loc = s.loc[:0]
	s.counts = [3]int{}
	s.cursor = 0
	s.before = [3]int{}
}

// OldestIn returns up to max position indices at loc, oldest first — the
// eviction order of both ALISA's offload heuristic ("store the preceding
// ones in the CPU") and its Phase III deletion ("delete the oldest KV
// tensors in the CPU").
func (s *TokenStore) OldestIn(loc Location, max int) []int {
	if max <= 0 {
		return nil
	}
	out := make([]int, 0, max)
	for i, l := range s.loc {
		if l == loc {
			out = append(out, i)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// NewestIn returns up to max position indices at loc, newest first.
func (s *TokenStore) NewestIn(loc Location, max int) []int {
	if max <= 0 {
		return nil
	}
	out := make([]int, 0, max)
	for i := len(s.loc) - 1; i >= 0; i-- {
		if s.loc[i] == loc {
			out = append(out, i)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// CountsBefore returns the location counts of positions [0, p), indexed
// by Location; p must lie in [0, Len()]. It walks the store's prefix
// cursor from the previous call's p, so the cost is the distance between
// the two prefixes, not the prefix length.
//
//alisa:hotpath
func (s *TokenStore) CountsBefore(p int) [3]int {
	if p < 0 || p > len(s.loc) {
		s.prefixOutOfRange(p)
	}
	for s.cursor < p {
		s.before[s.loc[s.cursor]]++
		s.cursor++
	}
	for s.cursor > p {
		s.cursor--
		s.before[s.loc[s.cursor]]--
	}
	return s.before
}

func (s *TokenStore) check(i int) {
	if i < 0 || i >= len(s.loc) {
		panic(fmt.Sprintf("kvcache: position %d out of range %d", i, len(s.loc)))
	}
}

func (s *TokenStore) prefixOutOfRange(p int) {
	panic(fmt.Sprintf("kvcache: prefix %d out of range [0, %d]", p, len(s.loc)))
}

// BlockStore is vLLM-style paged placement: tokens fill fixed-size blocks;
// whole blocks move between devices. Allocation is block-granular, so the
// final partially filled block still occupies a full block of memory.
type BlockStore struct {
	blockSize int
	tokens    int
	blocks    []Location // one entry per allocated block
}

// NewBlockStore returns an empty paged store with the given block size.
func NewBlockStore(blockSize int) *BlockStore {
	if blockSize <= 0 {
		panic(fmt.Sprintf("kvcache: block size must be positive, got %d", blockSize))
	}
	return &BlockStore{blockSize: blockSize}
}

// BlockSize returns the tokens per block.
func (b *BlockStore) BlockSize() int { return b.blockSize }

// Clone returns an independent deep copy of the store, for scheduler
// forking.
func (b *BlockStore) Clone() *BlockStore {
	return &BlockStore{blockSize: b.blockSize, tokens: b.tokens, blocks: append([]Location(nil), b.blocks...)}
}

// Tokens returns the number of tokens stored.
func (b *BlockStore) Tokens() int { return b.tokens }

// Blocks returns the number of allocated blocks.
func (b *BlockStore) Blocks() int { return len(b.blocks) }

// Append adds one token, allocating a new GPU block when the current one
// is full. It reports whether a new block was allocated.
func (b *BlockStore) Append() bool {
	grew := false
	if b.tokens == len(b.blocks)*b.blockSize {
		b.blocks = append(b.blocks, GPU)
		grew = true
	}
	b.tokens++
	return grew
}

// AllocatedTokens returns the token capacity of all allocated blocks —
// the fragmentation-inclusive footprint vLLM's paging avoids wasting
// beyond one block.
func (b *BlockStore) AllocatedTokens() int { return len(b.blocks) * b.blockSize }

// WouldGrow reports whether the next Append allocates a new block —
// letting callers reserve the block's memory before mutating the store.
func (b *BlockStore) WouldGrow() bool { return b.tokens == len(b.blocks)*b.blockSize }

// Reset empties the store for reuse after its sequence completes.
func (b *BlockStore) Reset() {
	b.blocks = b.blocks[:0]
	b.tokens = 0
}

// BlocksIn counts blocks at the given location.
func (b *BlockStore) BlocksIn(loc Location) int {
	n := 0
	for _, l := range b.blocks {
		if l == loc {
			n++
		}
	}
	return n
}

// SwapOut moves up to n of the oldest GPU blocks to CPU, returning how
// many moved.
func (b *BlockStore) SwapOut(n int) int {
	moved := 0
	for i := 0; i < len(b.blocks) && moved < n; i++ {
		if b.blocks[i] == GPU {
			b.blocks[i] = CPU
			moved++
		}
	}
	return moved
}

// SwapIn moves up to n of the oldest CPU blocks back to GPU, returning how
// many moved.
func (b *BlockStore) SwapIn(n int) int {
	moved := 0
	for i := 0; i < len(b.blocks) && moved < n; i++ {
		if b.blocks[i] == CPU {
			b.blocks[i] = GPU
			moved++
		}
	}
	return moved
}

// HeadStore is FlexGen-style head-level static placement: GPUFraction of
// every token's KV bytes stay on GPU and the rest on CPU, fixed for the
// whole inference ("splits KV tensors along the head dimension and remains
// static", Fig. 7(a)).
type HeadStore struct {
	heads    int
	gpuHeads int
	tokens   int
}

// NewHeadStore returns a head-split store keeping gpuHeads of heads on GPU.
func NewHeadStore(heads, gpuHeads int) *HeadStore {
	if heads <= 0 || gpuHeads < 0 || gpuHeads > heads {
		panic(fmt.Sprintf("kvcache: bad head split %d/%d", gpuHeads, heads))
	}
	return &HeadStore{heads: heads, gpuHeads: gpuHeads}
}

// Append adds one token position.
func (h *HeadStore) Append() { h.tokens++ }

// Clone returns an independent copy of the store, for scheduler forking.
func (h *HeadStore) Clone() *HeadStore {
	c := *h
	return &c
}

// Reset empties the store for reuse after its sequence completes.
func (h *HeadStore) Reset() { h.tokens = 0 }

// Tokens returns the number of stored token positions.
func (h *HeadStore) Tokens() int { return h.tokens }

// GPUFraction returns the byte fraction resident on GPU.
func (h *HeadStore) GPUFraction() float64 { return float64(h.gpuHeads) / float64(h.heads) }

// Split divides total KV bytes between the devices.
func (h *HeadStore) Split(totalBytes int64) (gpu, cpu int64) {
	gpu = int64(float64(totalBytes) * h.GPUFraction())
	return gpu, totalBytes - gpu
}
