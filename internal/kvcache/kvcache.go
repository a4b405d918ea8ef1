// Package kvcache provides the KV-tensor placement bookkeeping for the
// two dynamic caching granularities the paper compares (Table I):
//
//   - TokenStore — ALISA's token-level placement: every token position is
//     individually on GPU, on CPU, or deleted (recomputable).
//   - BlockStore — vLLM-style paged blocks: fixed groups of tokens move
//     between devices as units, with partial-block allocation overhead.
//
// FlexGen's head-level split is static — every token's KV divides the
// same way for the whole run — so it needs no store: sched's
// static-placement type keeps a token count and the split.
//
// Stores track logical placement and byte accounting; the memsim system
// charges the actual transfer times.
package kvcache

import (
	"fmt"
	"slices"
)

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

	// low is Oldest's scan bound: no position below low[l] lives at l.
	// Oldest raises it to the position it finds and Move lowers it, so
	// oldest-first eviction scans each position about once.
	low [3]int
}

// NewTokenStore returns an empty token-level store.
func NewTokenStore() *TokenStore { return &TokenStore{} }

// Len returns the number of token positions tracked (including deleted).
func (s *TokenStore) Len() int { return len(s.loc) }

// Clone returns an independent deep copy of the store, for scheduler
// forking.
func (s *TokenStore) Clone() *TokenStore {
	c := new(TokenStore)
	c.CopyFrom(s)
	return c
}

// CopyFrom makes s an independent copy of src in s's retained backing
// array, so restoring a saved store into a used one reallocates nothing
// once the array is large enough.
func (s *TokenStore) CopyFrom(src *TokenStore) {
	loc := append(s.loc[:0], src.loc...)
	*s = *src
	s.loc = loc
}

// Append adds a new token position at the given location and returns its
// index.
func (s *TokenStore) Append(loc Location) int {
	s.loc = append(s.loc, loc)
	s.counts[loc]++
	return len(s.loc) - 1
}

// AppendN adds n new token positions at the given location.
func (s *TokenStore) AppendN(loc Location, n int) {
	start := len(s.loc)
	s.loc = slices.Grow(s.loc, n)[:start+n]
	for i := start; i < len(s.loc); i++ {
		s.loc[i] = loc
	}
	s.counts[loc] += n
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
	s.low[to] = min(s.low[to], i)
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
	s.low = [3]int{}
}

// Oldest returns the smallest position at loc, false when there is none —
// the eviction order of both ALISA's offload heuristic ("store the
// preceding ones in the CPU") and its Phase III deletion ("delete the
// oldest KV tensors in the CPU").
func (s *TokenStore) Oldest(loc Location) (int, bool) {
	for i := s.low[loc]; i < len(s.loc); i++ {
		if s.loc[i] == loc {
			s.low[loc] = i
			return i, true
		}
	}
	s.low[loc] = len(s.loc)
	return 0, false
}

// Newest returns the largest position at loc, false when there is none.
func (s *TokenStore) Newest(loc Location) (int, bool) {
	for i := len(s.loc) - 1; i >= 0; i-- {
		if s.loc[i] == loc {
			return i, true
		}
	}
	return 0, false
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
	counts    [3]int     // blocks per location, BlocksIn's answer
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
	c := *b
	c.blocks = slices.Clone(b.blocks)
	return &c
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
		b.counts[GPU]++
		grew = true
	}
	b.tokens++
	return grew
}

// AppendN adds n tokens, allocating new GPU blocks as the last one
// fills, as n Appends would.
func (b *BlockStore) AppendN(n int) {
	b.tokens += n
	for len(b.blocks)*b.blockSize < b.tokens {
		b.blocks = append(b.blocks, GPU)
		b.counts[GPU]++
	}
}

// WouldGrow reports whether the next Append allocates a new block —
// letting callers reserve the block's memory before mutating the store.
func (b *BlockStore) WouldGrow() bool { return b.tokens == len(b.blocks)*b.blockSize }

// Reset empties the store for reuse after its sequence completes.
func (b *BlockStore) Reset() {
	b.blocks = b.blocks[:0]
	b.tokens = 0
	b.counts = [3]int{}
}

// BlocksIn counts blocks at the given location.
func (b *BlockStore) BlocksIn(loc Location) int { return b.counts[loc] }

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
	b.counts[GPU] -= moved
	b.counts[CPU] += moved
	return moved
}
