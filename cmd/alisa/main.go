// Command alisa is the repository's command line. Its subcommands share
// one flag set (flags.go): a flag means the same thing, with the same
// default, wherever it is accepted.
//
//	alisa paper -list | -run fig9 | -all      # the paper's tables and figures
//	alisa sim -model opt-13b -batch 64        # one end-to-end simulation
//	alisa tune -model opt-13b -batch 64       # the offline optimizer across KV sparsities
//	alisa serve -rates 1,2,4,8                # schedulers on the serving simulator
//	alisa serve -closed-loop 1,4 -think 0.5   # latency vs concurrency
//	alisa cluster -replicas 1,2,4 -rates 2,8  # fleet SLO vs load vs size
//	alisa gateway -addr 127.0.0.1:0           # the streaming simulation over HTTP
//
// Every subcommand runs ALISA at -sparsity and -bits (the paper's 0.8
// and INT8) and every baseline scheduler dense FP16, as the paper's
// evaluation does. SIGINT or SIGTERM cancels a run: sim, serve and
// cluster print what finished, and gateway drains. The exit code is 0
// on success, 1 when the run fails and 2 on a command-line error.
// `alisa <command> -h` lists a subcommand's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// commands lists the subcommands in usage order. Each parses its own
// arguments (parseFlags), writes its report to stdout, and returns nil,
// errUsage, or the error that ended the run.
var commands = []struct {
	name, doc string
	run       func(ctx context.Context, args []string, stdout io.Writer) error
}{
	{"paper", "regenerate the paper's evaluation tables and figures", runPaper},
	{"sim", "run one end-to-end inference simulation", runSim},
	{"tune", "sweep the offline scheduling optimizer across KV sparsities", runTune},
	{"serve", "compare schedulers on the continuous-batching serving simulator", runServe},
	{"cluster", "sweep a replicated fleet over routers, load and fleet size", runCluster},
	{"gateway", "serve the streaming simulation over HTTP with SSE", runGateway},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches args to their subcommand and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if args[0] != c.name {
				continue
			}
			err := c.run(ctx, args[1:], stdout)
			switch {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			}
			fmt.Fprintf(stderr, "alisa %s: %v\n", c.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "alisa: unknown command %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: alisa <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.doc)
	}
	return 2
}
