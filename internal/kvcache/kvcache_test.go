package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLocationString(t *testing.T) {
	if GPU.String() != "gpu" || CPU.String() != "cpu" || Deleted.String() != "deleted" {
		t.Fatal("location names wrong")
	}
	if Location(9).String() == "" {
		t.Fatal("unknown location should still format")
	}
}

func TestTokenStoreAppendMove(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 5; i++ {
		if got := s.Append(GPU); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	if s.Count(GPU) != 5 || s.Count(CPU) != 0 {
		t.Fatalf("counts wrong: gpu=%d cpu=%d", s.Count(GPU), s.Count(CPU))
	}
	s.Move(1, CPU)
	s.Move(3, CPU)
	s.Move(1, Deleted)
	if s.Count(GPU) != 3 || s.Count(CPU) != 1 || s.Count(Deleted) != 1 {
		t.Fatalf("counts after moves: gpu=%d cpu=%d del=%d", s.Count(GPU), s.Count(CPU), s.Count(Deleted))
	}
	if s.Loc(3) != CPU || s.Loc(1) != Deleted {
		t.Fatal("locations wrong after moves")
	}
	// Move to the same location is a no-op.
	s.Move(3, CPU)
	if s.Count(CPU) != 1 {
		t.Fatal("self-move changed counts")
	}
}

func TestTokenStoreOldestNewest(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 6; i++ {
		s.Append(GPU)
	}
	s.Move(0, CPU)
	s.Move(2, CPU)
	s.Move(5, CPU)
	if p, ok := s.Oldest(CPU); !ok || p != 0 {
		t.Fatalf("Oldest(CPU) = %d, %v, want 0, true", p, ok)
	}
	if p, ok := s.Newest(CPU); !ok || p != 5 {
		t.Fatalf("Newest(CPU) = %d, %v, want 5, true", p, ok)
	}
	if p, ok := s.Oldest(GPU); !ok || p != 1 {
		t.Fatalf("Oldest(GPU) = %d, %v, want 1, true", p, ok)
	}
	if p, ok := s.Newest(GPU); !ok || p != 4 {
		t.Fatalf("Newest(GPU) = %d, %v, want 4, true", p, ok)
	}
	if _, ok := s.Oldest(Deleted); ok {
		t.Fatal("Oldest(Deleted) found a position in a store with none deleted")
	}
	if _, ok := s.Newest(Deleted); ok {
		t.Fatal("Newest(Deleted) found a position in a store with none deleted")
	}
}

func TestTokenStoreCountsBefore(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 10; i++ {
		if i < 4 {
			s.Append(CPU)
		} else {
			s.Append(GPU)
		}
	}
	if got := s.CountsBefore(8); got != [3]int{GPU: 4, CPU: 4} {
		t.Fatalf("CountsBefore(8) = %v, want 4 gpu, 4 cpu", got)
	}
	if got := s.CountsBefore(0); got != [3]int{} {
		t.Fatalf("CountsBefore(0) = %v, want none", got)
	}
	if got := s.CountsBefore(10); got != [3]int{GPU: 6, CPU: 4} {
		t.Fatalf("CountsBefore(Len()) = %v, want 6 gpu, 4 cpu", got)
	}
	// A move below the cursor shows in the next query without a rescan.
	s.Move(1, Deleted)
	if got := s.CountsBefore(10); got != [3]int{GPU: 6, CPU: 3, Deleted: 1} {
		t.Fatalf("CountsBefore(10) after a move = %v, want 6 gpu, 3 cpu, 1 deleted", got)
	}
}

func TestTokenStoreOutOfRangePanics(t *testing.T) {
	s := NewTokenStore()
	s.Append(GPU)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Loc(Len())", func() { s.Loc(1) }},
		{"Loc(-1)", func() { s.Loc(-1) }},
		{"CountsBefore(-1)", func() { s.CountsBefore(-1) }},
		{"CountsBefore(Len()+1)", func() { s.CountsBefore(2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
	if NewTokenStore().CountsBefore(0) != [3]int{} {
		t.Fatal("CountsBefore(0) on an empty store should count nothing")
	}
}

// Property: counts always equal the number of positions at each location,
// and every position is in exactly one location.
func TestTokenStoreConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewTokenStore()
		for _, op := range ops {
			if s.Len() == 0 || op%5 == 0 {
				s.Append(Location(op % 3))
				continue
			}
			s.Move(int(op)%s.Len(), Location(op%3))
		}
		var counts [3]int
		for i := 0; i < s.Len(); i++ {
			counts[s.Loc(i)]++
		}
		return counts[GPU] == s.Count(GPU) &&
			counts[CPU] == s.Count(CPU) &&
			counts[Deleted] == s.Count(Deleted) &&
			counts[GPU]+counts[CPU]+counts[Deleted] == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStoreAllocation(t *testing.T) {
	b := NewBlockStore(4)
	for i := 0; i < 9; i++ {
		grew := b.Append()
		wantGrow := i%4 == 0
		if grew != wantGrow {
			t.Fatalf("token %d: grew=%v, want %v", i, grew, wantGrow)
		}
	}
	if b.Tokens() != 9 || b.Blocks() != 3 {
		t.Fatalf("tokens=%d blocks=%d, want 9/3", b.Tokens(), b.Blocks())
	}
	// Fragmentation: 3 blocks hold capacity 12 for 9 tokens.
	if got := b.Blocks() * b.BlockSize(); got != 12 {
		t.Fatalf("allocated tokens = %d, want 12", got)
	}
}

func TestBlockStoreSwap(t *testing.T) {
	b := NewBlockStore(2)
	for i := 0; i < 8; i++ {
		b.Append()
	}
	if moved := b.SwapOut(3); moved != 3 {
		t.Fatalf("SwapOut moved %d, want 3", moved)
	}
	if b.BlocksIn(CPU) != 3 || b.BlocksIn(GPU) != 1 {
		t.Fatalf("blocks gpu=%d cpu=%d", b.BlocksIn(GPU), b.BlocksIn(CPU))
	}
	if moved := b.SwapOut(99); moved != 1 {
		t.Fatalf("second SwapOut moved %d, want the 1 GPU block left", moved)
	}
	if b.BlocksIn(CPU) != 4 {
		t.Fatal("swap out did not move every block")
	}
}

func TestBlockStoreBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockStore(0)
}

// Property: block-store allocated capacity is always within one block of
// the token count, and swaps conserve block counts.
func TestBlockStoreInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBlockStore(1 + rng.Intn(8))
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				b.Append()
			} else {
				b.SwapOut(rng.Intn(4))
			}
			if b.BlocksIn(GPU)+b.BlocksIn(CPU) != b.Blocks() {
				return false
			}
			if capacity := b.Blocks() * b.BlockSize(); capacity < b.Tokens() ||
				capacity >= b.Tokens()+b.BlockSize()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
