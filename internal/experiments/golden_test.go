//go:build !race

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestExperimentGoldenDigests pins every experiment's rendered output
// across commits: the SHA-256 prefix of Render() for each All() entry.
// A change that means to move a paper output rewrites its digest here
// and says why. The race build skips it (about 10× slower there); the
// package's other tests keep its race coverage.
func TestExperimentGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full evaluation")
	}
	want := map[string]string{
		"table1":            "238eabd839fcd615",
		"fig1":              "5dcd85f0f68b24ab",
		"fig2c":             "c76e6bbf3817673b",
		"fig3":              "23e69ad70361f99b",
		"fig4":              "ddd838e053067ed8",
		"fig5":              "5cdc8568b82ab55f",
		"fig8":              "fd886b006ca19f69",
		"fig9":              "428d49948e14e6a3",
		"fig10":             "c398c7ce0aeef36b",
		"fig11":             "a80c97132d5f9bc8",
		"fig12a":            "86b8467d52a1a722",
		"fig12b":            "fdcef9f425443af4",
		"fig12c":            "fee2cf3104b55d43",
		"ablation-scoring":  "76b9cd29515bb58f",
		"numeric":           "2368cde204220162",
		"extension-int4":    "beb80fe27a95f98d",
		"ablation-caching":  "bdd1b0cb38b83682",
		"ablation-eviction": "b8c41f0f0c4d6f26",
	}
	runners := All()
	if len(want) != len(runners) {
		t.Errorf("%d golden digests for %d experiments", len(want), len(runners))
	}
	for _, r := range runners {
		res, err := r.Run()
		if err != nil {
			t.Errorf("%s: %v", r.ID, err)
			continue
		}
		sum := sha256.Sum256([]byte(res.Render()))
		got := hex.EncodeToString(sum[:])[:16]
		if got != want[r.ID] {
			t.Errorf("%s: digest %s, want %s", r.ID, got, want[r.ID])
		}
	}
}
