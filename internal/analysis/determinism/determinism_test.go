package determinism

import (
	"testing"

	"repro/internal/analysis/analyzertest"
)

// TestFixtures runs the analyzer (unscoped, so the fixture module's
// packages are in range) over the positive and negative fixtures,
// including the justified-suppression file.
func TestFixtures(t *testing.T) {
	analyzertest.Run(t, "../testdata/determinism", New(nil))
}

// TestMatchDefault pins the enforced package set: the simulation
// packages are in, their subpackages are in by prefix, and the
// wall-clock-legal layers (cmd, experiments, the lint suite itself)
// are out.
func TestMatchDefault(t *testing.T) {
	in := []string{
		"repro/internal/core",
		"repro/internal/serve",
		"repro/internal/cluster",
		"repro/internal/oracle",
		"repro/internal/metrics",
		"repro/internal/metrics/sketch",
		"repro/internal/sched",
		"repro/internal/attention",
		"repro/internal/trace",
		"repro/internal/workload",
	}
	out := []string{
		"repro",
		"repro/cmd/alisa",
		"repro/internal/experiments",
		"repro/internal/analysis",
		"repro/internal/metricsfoo", // prefix match must not cross path segments
		"repro/internal/kvcache",
	}
	for _, p := range in {
		if !MatchDefault(p) {
			t.Errorf("MatchDefault(%q) = false, want true", p)
		}
	}
	for _, p := range out {
		if MatchDefault(p) {
			t.Errorf("MatchDefault(%q) = true, want false", p)
		}
	}
}

// TestProductionAnalyzerScoped verifies the production instance carries
// the scope: Analyzer.Match must be MatchDefault's behavior, so running
// the suite over cmd/ cannot flag benchmark wall-clock reads.
func TestProductionAnalyzerScoped(t *testing.T) {
	if Analyzer.Match == nil {
		t.Fatal("production determinism analyzer has no package scope")
	}
	if Analyzer.Match("repro/cmd/alisa") {
		t.Error("production determinism analyzer must not cover cmd/alisa")
	}
	if !Analyzer.Match("repro/internal/serve") {
		t.Error("production determinism analyzer must cover internal/serve")
	}
}
