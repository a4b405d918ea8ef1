package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
)

// TestOptimizeChoicesPinned hashes every Optimize choice over a grid of
// profiles, models, batches, shapes, sparsities and KV widths, on a
// system reserved as the lockstep engine reserves it. The grid keeps
// cells where the KV does not fit and the search picks β > 0, so a
// change to the (β, p2) search that moves any choice moves the digest.
func TestOptimizeChoicesPinned(t *testing.T) {
	h := sha256.New()
	fits, pressured, recompute := 0, 0, 0
	for _, prof := range []memsim.Profile{memsim.V100_16G(), memsim.V100_32G(), memsim.H100_80G()} {
		for _, name := range model.Names() {
			for _, batch := range []int{32, 128} {
				for _, shape := range [][2]int{{128, 512}, {512, 1024}, {1024, 1024}} {
					for _, ratio := range []float64{0.2, 1} {
						for _, bits := range []int{8, 16} {
							ctx := reservedContext(prof, name, batch, shape[0], shape[1], ratio, bits)
							if ctx == nil {
								continue
							}
							p := Optimize(ctx)
							fits++
							if p.P1 < ctx.Output {
								pressured++
							}
							if p.Beta > 0 {
								recompute++
							}
							fmt.Fprintf(h, "%s %s b%d %d/%d r%v int%d: %+v\n",
								prof.Name, name, batch, shape[0], shape[1], ratio, bits, p)
						}
					}
				}
			}
		}
	}
	t.Logf("%d configs fit, %d memory-pressured, %d choose β > 0", fits, pressured, recompute)
	if recompute == 0 {
		t.Fatal("no cell chooses β > 0; the grid no longer covers the search")
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != "eea4eb5291840092" {
		t.Errorf("digest %s, want eea4eb5291840092", got)
	}
}

// TestOptimizeMatchesStraightSearch holds the checkpointed search to its
// definition: Optimize returns the winner of a straight loop that ranks
// the same candidates, in the same order, by Predict with the same strict
// <. The cells cover a prompt that spills to CPU memory in Init (p1 = 0),
// a pressured cell that keeps β = 0, and a fast GPU that recomputes.
func TestOptimizeMatchesStraightSearch(t *testing.T) {
	cells := []struct {
		prof          memsim.Profile
		model         string
		batch         int
		input, output int
		ratio         float64
		bits          int
		spills        bool // the prompt's KV exceeds the GPU budget
		recomputes    bool // the search picks β > 0
	}{
		{memsim.V100_16G(), "llama-7b", 32, 128, 512, 0.2, 16, true, false},
		{memsim.V100_16G(), "opt-6.7b", 32, 128, 512, 0.2, 8, false, false},
		{memsim.H100_80G(), "opt-30b", 64, 128, 512, 0.2, 16, false, true},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s %s b%d %d/%d r%v %d-bit", c.prof.Name, c.model, c.batch, c.input, c.output, c.ratio, c.bits)
		ctx := reservedContext(c.prof, c.model, c.batch, c.input, c.output, c.ratio, c.bits)
		budget := int(ctx.Sys.GPUHeadroom() / ctx.TokenBytes())
		got := Optimize(ctx)

		want := Params{Alpha: got.Alpha, P1: got.P1, P2: ctx.Output}
		wantCost := Predict(ctx, want)
		for _, beta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
			for frac := 0.125; frac < 1.0; frac += 0.125 {
				p := Params{Alpha: got.Alpha, Beta: beta, P1: got.P1, P2: got.P1 + int(frac*float64(ctx.Output-got.P1))}
				if cost := Predict(ctx, p); cost < wantCost {
					want, wantCost = p, cost
				}
			}
		}
		if want.P1 >= ctx.Output || (budget < ctx.Input) != c.spills || (want.Beta > 0) != c.recomputes {
			t.Fatalf("%s: budget %d, %+v: not the cell the test covers", name, budget, want)
		}
		if got != want {
			t.Errorf("%s: Optimize %+v, straight search over Predict %+v (%.6fs)", name, got, want, wantCost)
		}
	}
}

// reservedContext returns a context for the cell on a system reserved as
// the lockstep engine reserves it, nil when the reservation does not fit.
func reservedContext(prof memsim.Profile, name string, batch, input, output int, ratio float64, bits int) *Context {
	ctx := &Context{
		Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof), Model: model.MustByName(name),
		Batch: batch, Input: input, Output: output,
		CachingRatio: ratio, KVBits: bits,
	}
	if ctx.ReserveStatic(false) != nil {
		return nil
	}
	return ctx
}
