package kvcache

import (
	"math/rand"
	"testing"
)

// locations in a fixed order for sampling and recounting.
var allLocations = []Location{GPU, CPU, Deleted}

// recount tallies TokenStore locations the slow way, as the reference for
// the cached counters.
func recount(s *TokenStore) [3]int { return recountPrefix(s, s.Len()) }

// recountPrefix tallies the locations of positions [0, p) the slow way,
// as the reference for the prefix cursor.
func recountPrefix(s *TokenStore, p int) [3]int {
	var c [3]int
	for i := 0; i < p; i++ {
		c[s.Loc(i)]++
	}
	return c
}

// checkTokenStore asserts every TokenStore invariant: the three locations
// partition the token set, no counter is negative, and byte totals are
// exactly counts × tokenBytes.
func checkTokenStore(t *testing.T, s *TokenStore, tokenBytes int64) {
	t.Helper()
	ref := recount(s)
	gpu, cpu, del := s.Counts()
	if gpu != ref[GPU] || cpu != ref[CPU] || del != ref[Deleted] {
		t.Fatalf("cached counts (%d,%d,%d) != recount (%d,%d,%d)",
			gpu, cpu, del, ref[GPU], ref[CPU], ref[Deleted])
	}
	if gpu < 0 || cpu < 0 || del < 0 {
		t.Fatalf("negative counts (%d,%d,%d)", gpu, cpu, del)
	}
	if gpu+cpu+del != s.Len() {
		t.Fatalf("locations do not partition the token set: %d+%d+%d != %d", gpu, cpu, del, s.Len())
	}
	for _, loc := range allLocations {
		if s.Count(loc) != ref[loc] {
			t.Fatalf("Count(%v) = %d, recount %d", loc, s.Count(loc), ref[loc])
		}
	}
	gb, cb := s.Bytes(tokenBytes)
	if gb != int64(gpu)*tokenBytes || cb != int64(cpu)*tokenBytes {
		t.Fatalf("Bytes(%d) = (%d,%d), want (%d,%d)", tokenBytes, gb, cb,
			int64(gpu)*tokenBytes, int64(cpu)*tokenBytes)
	}
	if gb < 0 || cb < 0 {
		t.Fatalf("negative byte totals (%d,%d)", gb, cb)
	}
}

// TestTokenStoreProperties drives random op sequences — append one or
// several, move, clone, copy into a used store, reset — and checks the byte-accounting
// invariants, Oldest and Newest after every op, and the prefix cursor at a
// random prefix, so that the cursor moves both ways between queries, Moves
// land on both sides of it and behind Oldest's scan bound, and both carry
// across copies.
func TestTokenStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, spare := NewTokenStore(), NewTokenStore()
		tokenBytes := int64(1 + rng.Intn(1<<20))
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.4 || s.Len() == 0:
				s.Append(allLocations[rng.Intn(3)])
			case r < 0.5:
				s.AppendN(allLocations[rng.Intn(3)], rng.Intn(6))
			case r < 0.93:
				s.Move(rng.Intn(s.Len()), allLocations[rng.Intn(3)])
			case r < 0.95:
				c := s.Clone()
				if c.Len() != s.Len() || recount(c) != recount(s) {
					t.Fatalf("seed %d op %d: clone holds %d positions %v, original %d %v",
						seed, op, c.Len(), recount(c), s.Len(), recount(s))
				}
				s = c
			case r < 0.97:
				// Copy into the spare, a used store whose length the ops
				// since the last copy have made differ, and go on with the
				// copy; the original becomes the next spare.
				spare.CopyFrom(s)
				if spare.Len() != s.Len() || recount(spare) != recount(s) {
					t.Fatalf("seed %d op %d: copy holds %d positions %v, original %d %v",
						seed, op, spare.Len(), recount(spare), s.Len(), recount(s))
				}
				s, spare = spare, s
			default:
				// Refill some positions before the checks, so that Oldest
				// meets them with the scan bound Reset left.
				s.Reset()
				for n := rng.Intn(8); n > 0; n-- {
					s.Append(allLocations[rng.Intn(3)])
				}
			}
			checkTokenStore(t, s, tokenBytes)
			checkOldestNewest(t, s, seed, op)
			p := rng.Intn(s.Len() + 1)
			if got, want := s.CountsBefore(p), recountPrefix(s, p); got != want {
				t.Fatalf("seed %d op %d: CountsBefore(%d) = %v, recount %v", seed, op, p, got, want)
			}
		}
	}
}

// checkOldestNewest holds Oldest and Newest to the smallest and largest
// position at each location, false when there is none.
func checkOldestNewest(t *testing.T, s *TokenStore, seed int64, op int) {
	t.Helper()
	for _, loc := range allLocations {
		first, last := -1, -1
		for p := 0; p < s.Len(); p++ {
			if s.Loc(p) == loc {
				if first < 0 {
					first = p
				}
				last = p
			}
		}
		if p, ok := s.Oldest(loc); ok != (first >= 0) || ok && p != first {
			t.Fatalf("seed %d op %d: Oldest(%v) = %d, %v; smallest position at it %d", seed, op, loc, p, ok, first)
		}
		if p, ok := s.Newest(loc); ok != (last >= 0) || ok && p != last {
			t.Fatalf("seed %d op %d: Newest(%v) = %d, %v; largest position at it %d", seed, op, loc, p, ok, last)
		}
	}
}

// TestBlockStoreProperties drives random append (one token or several),
// swap-out, clone and reset sequences and checks block-level accounting:
// BlocksIn matches a recount of the blocks, blocks partition across
// devices, token counts stay within the allocated capacity, and
// WouldGrow predicts exactly when Append allocates.
func TestBlockStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bs := 1 + rng.Intn(32)
		b := NewBlockStore(bs)
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				predicted := b.WouldGrow()
				if grew := b.Append(); grew != predicted {
					t.Fatalf("seed %d: WouldGrow=%v but Append grew=%v", seed, predicted, grew)
				}
			case r < 0.6:
				b.AppendN(rng.Intn(3 * bs))
			case r < 0.65:
				b = b.Clone()
			case r < 0.66:
				b.Reset()
			default:
				n := rng.Intn(4)
				if moved := b.SwapOut(n); moved > n || moved > b.Blocks() {
					t.Fatalf("seed %d: SwapOut(%d) moved %d of %d blocks", seed, n, moved, b.Blocks())
				}
			}
			var ref [3]int
			for _, loc := range b.blocks {
				ref[loc]++
			}
			gpu, cpu, del := b.BlocksIn(GPU), b.BlocksIn(CPU), b.BlocksIn(Deleted)
			if [3]int{gpu, cpu, del} != ref {
				t.Fatalf("seed %d op %d: BlocksIn (%d,%d,%d), recount %v", seed, op, gpu, cpu, del, ref)
			}
			if gpu+cpu+del != b.Blocks() {
				t.Fatalf("seed %d: blocks do not partition: %d+%d+%d != %d", seed, gpu, cpu, del, b.Blocks())
			}
			if del != 0 {
				t.Fatalf("seed %d: paged store invented deleted blocks", seed)
			}
			capacity := b.Blocks() * b.BlockSize()
			if b.Tokens() > capacity {
				t.Fatalf("seed %d: %d tokens exceed capacity %d", seed, b.Tokens(), capacity)
			}
			if capacity-b.Tokens() >= bs {
				t.Fatalf("seed %d: more than one partial block of slack (%d tokens, %d allocated, block %d)",
					seed, b.Tokens(), capacity, bs)
			}
		}
		b.Reset()
		if b.Tokens() != 0 || b.Blocks() != 0 || !b.WouldGrow() {
			t.Fatalf("seed %d: Reset left state: %d tokens, %d blocks", seed, b.Tokens(), b.Blocks())
		}
	}
}
