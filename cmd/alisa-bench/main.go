// Command alisa-bench regenerates the paper's evaluation: every table and
// figure, or a selected subset.
//
// Usage:
//
//	alisa-bench -list            # enumerate experiments
//	alisa-bench -run fig9        # one experiment
//	alisa-bench -all             # the full evaluation
//
// Performance is measured by the repository benchmark (`bash
// bench/run.sh`; see bench/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "run one experiment by id (e.g. fig9)")
	all := flag.Bool("all", false, "run every experiment in paper order")
	flag.Parse()

	var runners []experiments.Runner
	switch {
	case *list:
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	case *run != "":
		r, err := experiments.ByID(*run)
		if err != nil {
			fatal(err)
		}
		runners = []experiments.Runner{r}
	case *all:
		runners = experiments.All()
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, r := range runners {
		start := time.Now()
		res, err := r.Run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.ID, err))
		}
		elapsed := time.Since(start)
		fmt.Printf("== %s — %s (ran in %s)\n\n", r.ID, r.Title, elapsed.Round(time.Millisecond))
		fmt.Println(res.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alisa-bench:", err)
	os.Exit(1)
}
