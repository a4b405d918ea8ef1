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

// TestTokenStoreProperties drives random op sequences — append, move,
// clone, reset — and checks the byte-accounting invariants after every
// op, and the prefix cursor at a random prefix, so that the cursor moves
// both ways between queries and Moves land on both sides of it.
func TestTokenStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewTokenStore()
		tokenBytes := int64(1 + rng.Intn(1<<20))
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.5 || s.Len() == 0:
				s.Append(allLocations[rng.Intn(3)])
			case r < 0.93:
				s.Move(rng.Intn(s.Len()), allLocations[rng.Intn(3)])
			case r < 0.97:
				c := s.Clone()
				if c.Len() != s.Len() || recount(c) != recount(s) {
					t.Fatalf("seed %d op %d: clone holds %d positions %v, original %d %v",
						seed, op, c.Len(), recount(c), s.Len(), recount(s))
				}
				s = c
			default:
				s.Reset()
			}
			checkTokenStore(t, s, tokenBytes)
			p := rng.Intn(s.Len() + 1)
			if got, want := s.CountsBefore(p), recountPrefix(s, p); got != want {
				t.Fatalf("seed %d op %d: CountsBefore(%d) = %v, recount %v", seed, op, p, got, want)
			}
		}
		// Oldest/newest enumeration agrees with the counters and with
		// each other (reversed) at every location.
		for _, loc := range allLocations {
			oldest := s.OldestIn(loc, s.Len())
			newest := s.NewestIn(loc, s.Len())
			if len(oldest) != s.Count(loc) || len(newest) != s.Count(loc) {
				t.Fatalf("seed %d: enumeration of %v returned %d/%d, count %d",
					seed, loc, len(oldest), len(newest), s.Count(loc))
			}
			for i := range oldest {
				if oldest[i] != newest[len(newest)-1-i] {
					t.Fatalf("seed %d: oldest/newest disagree at %d", seed, i)
				}
				if s.Loc(oldest[i]) != loc {
					t.Fatalf("seed %d: enumerated position %d not at %v", seed, oldest[i], loc)
				}
			}
		}
	}
}

// TestBlockStoreProperties drives random append/swap sequences and checks
// block-level accounting: blocks partition across devices, token counts
// stay within the allocated capacity, and WouldGrow predicts exactly when
// Append allocates.
func TestBlockStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bs := 1 + rng.Intn(32)
		b := NewBlockStore(bs)
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.6:
				predicted := b.WouldGrow()
				if grew := b.Append(); grew != predicted {
					t.Fatalf("seed %d: WouldGrow=%v but Append grew=%v", seed, predicted, grew)
				}
			case r < 0.8:
				n := rng.Intn(4)
				if moved := b.SwapOut(n); moved > n || moved > b.Blocks() {
					t.Fatalf("seed %d: SwapOut(%d) moved %d of %d blocks", seed, n, moved, b.Blocks())
				}
			default:
				n := rng.Intn(4)
				if moved := b.SwapIn(n); moved > n || moved > b.Blocks() {
					t.Fatalf("seed %d: SwapIn(%d) moved %d of %d blocks", seed, n, moved, b.Blocks())
				}
			}
			gpu, cpu, del := b.BlocksIn(GPU), b.BlocksIn(CPU), b.BlocksIn(Deleted)
			if gpu+cpu+del != b.Blocks() {
				t.Fatalf("seed %d: blocks do not partition: %d+%d+%d != %d", seed, gpu, cpu, del, b.Blocks())
			}
			if del != 0 {
				t.Fatalf("seed %d: paged store invented deleted blocks", seed)
			}
			if b.Tokens() > b.AllocatedTokens() {
				t.Fatalf("seed %d: %d tokens exceed capacity %d", seed, b.Tokens(), b.AllocatedTokens())
			}
			if b.AllocatedTokens()-b.Tokens() >= bs {
				t.Fatalf("seed %d: more than one partial block of slack (%d tokens, %d allocated, block %d)",
					seed, b.Tokens(), b.AllocatedTokens(), bs)
			}
			if b.AllocatedTokens() != b.Blocks()*bs {
				t.Fatalf("seed %d: capacity %d != %d blocks × %d", seed, b.AllocatedTokens(), b.Blocks(), bs)
			}
		}
		b.Reset()
		if b.Tokens() != 0 || b.Blocks() != 0 || !b.WouldGrow() {
			t.Fatalf("seed %d: Reset left state: %d tokens, %d blocks", seed, b.Tokens(), b.Blocks())
		}
	}
}

// TestHeadStoreProperties checks the static split: shares sum exactly to
// the total for random head splits and byte totals, and never go negative.
func TestHeadStoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		heads := 1 + rng.Intn(96)
		gpuHeads := rng.Intn(heads + 1)
		h := NewHeadStore(heads, gpuHeads)
		if f := h.GPUFraction(); f < 0 || f > 1 {
			t.Fatalf("fraction %v outside [0,1]", f)
		}
		for i := 0; i < 10; i++ {
			total := rng.Int63n(1 << 40)
			gpu, cpu := h.Split(total)
			if gpu < 0 || cpu < 0 {
				t.Fatalf("negative split (%d,%d) of %d", gpu, cpu, total)
			}
			if gpu+cpu != total {
				t.Fatalf("split (%d,%d) does not sum to %d", gpu, cpu, total)
			}
		}
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			h.Append()
		}
		if h.Tokens() != n {
			t.Fatalf("tokens %d after %d appends", h.Tokens(), n)
		}
		h.Reset()
		if h.Tokens() != 0 {
			t.Fatalf("Reset left %d tokens", h.Tokens())
		}
	}
}
