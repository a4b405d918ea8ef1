package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteComposition pins the production analyzer set: dropping one
// from the gate is a contract change, not a refactor.
func TestSuiteComposition(t *testing.T) {
	want := []string{"determinism", "hotpath", "cancellation"}
	got := suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestRunExitCodes drives the driver itself over a throwaway module
// that shadows the repro module path, proving the acceptance case
// end to end: a reintroduced time.Now in internal/serve makes the
// gate exit non-zero, and removing it brings the exit back to 0.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro\n\ngo 1.24\n")
	write("internal/serve/clock.go", `package serve

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`)

	var out strings.Builder
	if code := run(&out, dir, []string{"./..."}); code != 1 {
		t.Fatalf("dirty tree: run = %d, want 1 (output: %s)", code, out.String())
	}
	if !strings.Contains(out.String(), "[determinism]") || !strings.Contains(out.String(), "time.Now") {
		t.Fatalf("dirty tree output missing determinism finding:\n%s", out.String())
	}

	write("internal/serve/clock.go", `package serve

func stamp() int64 { return 0 }
`)
	out.Reset()
	if code := run(&out, dir, []string{"./..."}); code != 0 {
		t.Fatalf("clean tree: run = %d, want 0 (output: %s)", code, out.String())
	}

	out.Reset()
	if code := run(&out, dir, []string{"./no/such/pkg"}); code != 2 {
		t.Fatalf("bad pattern: run = %d, want 2", code)
	}
}
