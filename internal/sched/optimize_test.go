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
							ctx := &Context{
								Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof), Model: model.MustByName(name),
								Batch: batch, Input: shape[0], Output: shape[1],
								CachingRatio: ratio, KVBits: bits,
							}
							if ctx.Sys.AllocGPU(prof.ReserveBytes) != nil ||
								ctx.Sys.AllocGPU(ctx.WeightBytes()) != nil ||
								ctx.Sys.AllocGPU(ctx.ActivationBytes()) != nil {
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
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != "360198eac95de6cf" {
		t.Errorf("digest %s, want 360198eac95de6cf", got)
	}
}
