package registry

import (
	"testing"

	"repro/internal/analysis/analyzertest"
)

// TestFixtures runs the analyzer, configured for the fixture module's
// own registry package, over legal by-name resolution and the two
// direct-construction bypasses (constructor call, composite literal).
// The owning package constructs its built-in freely.
func TestFixtures(t *testing.T) {
	a := New(Config{
		"regfix/sched": {
			Constructors: []string{"NewAlisa"},
			Types:        []string{"Alisa"},
		},
	})
	analyzertest.Run(t, "../testdata/registry", a)
}

// TestDefaultConfigCoversEvaluationSets pins the production config to
// the registered builtin sets: every exported sched registry constructor
// and every attention comparison policy is protected. (sched's static
// placements are one unexported type, out of other packages' reach.)
func TestDefaultConfigCoversEvaluationSets(t *testing.T) {
	sched := DefaultConfig["repro/internal/sched"]
	attn := DefaultConfig["repro/internal/attention"]
	wantSched := []string{"NewAlisa", "NewVLLM", "NewNoCache"}
	wantAttn := []string{"NewDense", "NewLocal", "NewStrided", "NewSWA", "NewH2O"}
	if got, want := len(sched.Constructors), len(wantSched); got != want {
		t.Fatalf("sched constructors: got %d, want %d", got, want)
	}
	for i, n := range wantSched {
		if sched.Constructors[i] != n {
			t.Errorf("sched constructor %d = %q, want %q", i, sched.Constructors[i], n)
		}
	}
	for i, n := range wantAttn {
		if attn.Constructors[i] != n {
			t.Errorf("attention constructor %d = %q, want %q", i, attn.Constructors[i], n)
		}
	}
	if len(sched.Types) != len(sched.Constructors) || len(attn.Types) != len(attn.Constructors) {
		t.Error("every protected constructor needs its composite-literal type protected too")
	}
}
