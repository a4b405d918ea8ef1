// Command alisa-lint is the repo's static-contract gate: a
// multichecker-style driver over the internal/analysis suite. It loads
// the packages matched by its arguments (default ./...), runs every
// analyzer in its production configuration, and exits non-zero when any
// finding survives suppression — CI runs it alongside vet and gofmt.
//
// Usage:
//
//	alisa-lint [-list] [packages]
//
// Findings print one per line, compiler-style:
//
//	internal/serve/serve.go:123:4: [determinism] time.Now reads the wall clock; ...
//
// A finding is suppressed by an //alisa:ignore comment naming the
// analyzer and a reason (DESIGN.md §12); reason-less suppressions are
// themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/cancellation"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
)

// suite is the production analyzer set, each in its default
// configuration: determinism scoped to the simulation packages, the
// rest module-wide.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		cancellation.Analyzer,
	}
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and their contracts, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: alisa-lint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range suite() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(run(os.Stdout, ".", flag.Args()))
}

// run executes the suite over the module rooted at dir and returns the
// process exit code: 0 clean, 1 findings, 2 load or internal error.
func run(out io.Writer, dir string, patterns []string) int {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	findings, err := analysis.Run(pkgs, suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "alisa-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
