package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
)

// runPaper regenerates the paper's evaluation: every table and figure
// (-all), one of them (-run), or the list of ids (-list). Performance is
// measured by the repository benchmark (bash bench/run.sh), not here.
func runPaper(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("paper", args)
	if err != nil {
		return err
	}
	var runners []experiments.Runner
	switch {
	case f.list:
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", r.ID, r.Title)
		}
		return nil
	case f.run != "":
		r, err := experiments.ByID(f.run)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	case f.all:
		runners = experiments.All()
	default:
		f.fs.Usage()
		return errUsage
	}
	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		res, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintf(stdout, "== %s — %s (ran in %s)\n\n", r.ID, r.Title, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout, res.Render())
	}
	return nil
}
