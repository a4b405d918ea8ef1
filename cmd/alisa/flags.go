package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	alisa "repro"
	"repro/internal/cluster"
	"repro/internal/memsim"
)

// errUsage marks a command-line error the flag package has already
// reported together with the usage text.
var errUsage = errors.New("usage")

// accepts names the flags each subcommand takes.
var accepts = map[string][]string{
	"paper":   {"list", "run", "all"},
	"sim":     {"model", "profile", "sched", "sparsity", "bits", "batch", "input", "output", "progress"},
	"tune":    {"model", "bits", "batch", "input", "output"},
	"serve":   {"model", "profile", "sched", "sparsity", "bits", "max-batch", "slo-ttft", "slo-tpot", "n", "seed", "rates", "closed-loop", "think", "parallel", "progress", "prefix-cache", "prefix-block", "workload"},
	"cluster": {"model", "sched", "sparsity", "bits", "max-batch", "slo-ttft", "slo-tpot", "window", "n", "seed", "rates", "parallel", "replicas", "routers", "profiles", "autoscale", "as-max", "as-target", "as-idle"},
	"gateway": {"model", "profile", "sched", "sparsity", "bits", "max-batch", "slo-ttft", "slo-tpot", "window", "addr", "time-scale", "buffer", "hold", "drain-timeout"},
}

// flags holds every flag of every subcommand. A flag a subcommand does
// not accept keeps its default, and every default is valid, so validate
// and engineOptions read all fields whichever subcommand runs.
type flags struct {
	fs *flag.FlagSet

	// paper
	list, all bool
	run       string

	// the engine; sim and tune also take the workload shape
	model, profile, sched string
	sparsity              float64
	bits, maxBatch        int
	sloTTFT, sloTPOT      float64
	window                int
	progress              bool
	batch, input, output  int

	// the serve and cluster grids
	n, parallel                 int
	seed                        int64
	rates, closedLoop           string
	think                       float64
	prefixCache                 bool
	prefixBlock                 int
	workload                    string
	replicas, routers, profiles string
	autoscale                   bool
	asMax                       int
	asTarget, asIdle            float64

	// gateway
	addr         string
	timeScale    float64
	buffer       int
	hold         bool
	drainTimeout time.Duration

	// the list flags, parsed by validate
	rateVals       []float64
	clients, sizes []int
	routerNames    []string
}

// parseFlags parses subcommand cmd's arguments and validates them. Each
// flag is defined here once; cmd's FlagSet takes the ones it accepts.
func parseFlags(cmd string, args []string) (*flags, error) {
	f := new(flags)
	all := flag.NewFlagSet(cmd, flag.PanicOnError)
	all.BoolVar(&f.list, "list", false, "list the experiments")
	all.StringVar(&f.run, "run", "", "run one experiment by id (e.g. fig9)")
	all.BoolVar(&f.all, "all", false, "run every experiment in paper order")

	all.StringVar(&f.model, "model", "opt-6.7b", "model: "+strings.Join(alisa.Models(), ", "))
	all.StringVar(&f.profile, "profile", "", "hardware profile: "+strings.Join(memsim.ProfileNames(), ", ")+" (empty = the paper's pairing for the model)")
	sched := "alisa"
	if cmd == "serve" { // serve compares schedulers; the rest run one
		sched = "alisa,flexgen,vllm,hf-accelerate,gpu-only"
	}
	all.StringVar(&f.sched, "sched", sched, "KV placement scheduler: "+strings.Join(alisa.Schedulers(), ", ")+", gpu-only or no-cache (serve: a comma-separated list)")
	all.Float64Var(&f.sparsity, "sparsity", 0.8, "ALISA's KV sparsity in [0,1); baselines run dense")
	all.IntVar(&f.bits, "bits", 8, "ALISA's KV bits, 8 or 16; baselines run FP16")
	all.IntVar(&f.maxBatch, "max-batch", 16, "decode batch cap (per replica)")
	all.Float64Var(&f.sloTTFT, "slo-ttft", 10, "TTFT SLO, simulated seconds (goodput)")
	all.Float64Var(&f.sloTPOT, "slo-tpot", 0.5, "TPOT SLO, simulated seconds/token (goodput)")
	all.IntVar(&f.window, "window", 64, "rolling metrics window, completions")
	all.BoolVar(&f.progress, "progress", false, "stream simulation events to stderr")

	all.IntVar(&f.batch, "batch", 32, "batch size")
	all.IntVar(&f.input, "input", 128, "prompt length s")
	all.IntVar(&f.output, "output", 512, "generated tokens n")

	all.IntVar(&f.n, "n", 48, "requests in the trace (closed loop: per cell)")
	all.Int64Var(&f.seed, "seed", 1, "trace seed")
	all.StringVar(&f.rates, "rates", "2,4,8", "comma-separated arrival rates, requests/second (one value = one operating point)")
	all.StringVar(&f.closedLoop, "closed-loop", "", "comma-separated client counts for a closed-loop latency-vs-concurrency run")
	all.Float64Var(&f.think, "think", 0.5, "mean client think time in seconds for -closed-loop (exponential)")
	all.IntVar(&f.parallel, "parallel", 1, "concurrent grid cells (0 = GOMAXPROCS workers, 1 = serial)")
	all.BoolVar(&f.prefixCache, "prefix-cache", false, "share block-aligned prompt prefixes copy-on-write across requests")
	all.IntVar(&f.prefixBlock, "prefix-block", 16, "prefix cache block size in tokens (with -prefix-cache)")
	all.StringVar(&f.workload, "workload", "", "prefix-sharing workload: conv, agent (closed loop only), or rag (open loop only); empty = plain Poisson")
	all.StringVar(&f.replicas, "replicas", "1,2,4", "comma-separated fleet sizes")
	all.StringVar(&f.routers, "routers", "", "comma-separated routing policies: "+strings.Join(alisa.ClusterRouters(), ", ")+" (empty = all)")
	all.StringVar(&f.profiles, "profiles", "", "comma-separated hardware tiers cycled across replicas (empty = the engine's)")
	all.BoolVar(&f.autoscale, "autoscale", false, "enable the SLO-driven autoscaler (fleet sizes become the Min bound)")
	all.IntVar(&f.asMax, "as-max", 4, "autoscaler fleet ceiling")
	all.Float64Var(&f.asTarget, "as-target", 0.9, "autoscaler windowed SLO-attainment target")
	all.Float64Var(&f.asIdle, "as-idle", 5, "autoscaler scale-down idle threshold, simulated seconds")

	all.StringVar(&f.addr, "addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral; bound address printed on stdout)")
	all.Float64Var(&f.timeScale, "time-scale", 1, "simulated seconds per wall second (0 = as fast as possible)")
	all.IntVar(&f.buffer, "buffer", 64, "per-connection event buffer, events; a full buffer drops its oldest event")
	all.BoolVar(&f.hold, "hold", false, "gate the simulated clock until POST /v1/admin/release")
	all.DurationVar(&f.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before aborting")

	f.fs = flag.NewFlagSet("alisa "+cmd, flag.ContinueOnError)
	for _, name := range accepts[cmd] {
		fl := all.Lookup(name)
		f.fs.Var(fl.Value, name, fl.Usage)
	}
	if err := f.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	return f, f.validate()
}

// validate checks the flag values and parses the list flags.
func (f *flags) validate() error {
	var err error
	if f.rateVals, err = parseRates(f.rates, "-rates"); err != nil {
		return err
	}
	if f.clients, err = parseInts(f.closedLoop, "-closed-loop"); err != nil {
		return err
	}
	if f.sizes, err = parseInts(f.replicas, "-replicas"); err != nil {
		return err
	}
	if f.routerNames = splitList(f.routers); len(f.routerNames) == 0 {
		f.routerNames = alisa.ClusterRouters()
	}
	for _, r := range f.routerNames {
		if _, err := cluster.RouterByName(r); err != nil {
			return err
		}
	}
	ratesSet := false
	f.fs.Visit(func(fl *flag.Flag) { ratesSet = ratesSet || fl.Name == "rates" })
	switch {
	case f.n <= 0:
		return fmt.Errorf("-n must be positive, got %d", f.n)
	case f.parallel < 0:
		return fmt.Errorf("-parallel must be ≥ 0, got %d", f.parallel)
	case len(f.rateVals) == 0:
		return errors.New("-rates must list at least one arrival rate")
	case ratesSet && len(f.clients) > 0:
		return errors.New("-rates and -closed-loop are different load regimes; pick one")
	case f.think < 0:
		return fmt.Errorf("-think must be ≥ 0, got %v", f.think)
	case !slices.Contains([]string{"", "conv", "agent", "rag"}, f.workload):
		return fmt.Errorf("unknown -workload %q (want conv, agent, or rag)", f.workload)
	case f.workload == "agent" && len(f.clients) == 0:
		return errors.New("-workload agent is closed-loop only; add -closed-loop")
	case f.workload == "rag" && len(f.clients) > 0:
		return errors.New("-workload rag is open-loop only; drop -closed-loop")
	case f.prefixCache && f.prefixBlock <= 0:
		return fmt.Errorf("-prefix-block must be positive, got %d", f.prefixBlock)
	case len(f.sizes) == 0:
		return errors.New("-replicas must list at least one fleet size")
	case f.autoscale && slices.Max(f.sizes) > f.asMax:
		return fmt.Errorf("-replicas %d exceeds -as-max %d", slices.Max(f.sizes), f.asMax)
	case f.autoscale && (f.asTarget <= 0 || f.asTarget > 1):
		return fmt.Errorf("-as-target must be in (0, 1], got %v", f.asTarget)
	case f.timeScale < 0 || math.IsNaN(f.timeScale) || math.IsInf(f.timeScale, 0):
		return fmt.Errorf("-time-scale must be a finite dilation ≥ 0 (0 = as fast as possible), got %v", f.timeScale)
	case f.buffer <= 0:
		return fmt.Errorf("-buffer must be positive, got %d", f.buffer)
	case f.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %v", f.drainTimeout)
	}
	_, port, err := net.SplitHostPort(f.addr)
	if err != nil {
		return fmt.Errorf("-addr must be host:port, got %q: %v", f.addr, err)
	}
	p, err := strconv.Atoi(port)
	switch {
	case err != nil:
		return fmt.Errorf("-addr port must be numeric, got %q", port)
	case p < 0 || p > 65535:
		return fmt.Errorf("-addr port must be in [0, 65535], got %d", p)
	}
	return nil
}

// engineOptions builds the engine options for scheduler sched.
func (f *flags) engineOptions(sched string) []alisa.Option {
	sparsity, bits := f.kv(sched)
	opts := []alisa.Option{
		alisa.WithScheduler(sched),
		alisa.WithKVSparsity(sparsity),
		alisa.WithKVBits(bits),
		alisa.WithMaxBatch(f.maxBatch),
		alisa.WithSLO(f.sloTTFT, f.sloTPOT),
		alisa.WithMetricsWindow(f.window),
	}
	if f.profile != "" {
		opts = append(opts, alisa.WithProfile(f.profile))
	}
	return opts
}

// kv returns the KV sparsity and bits scheduler sched runs at. The
// paper evaluates ALISA at its KV sparsity with INT8 and every baseline
// dense FP16 (internal/experiments' fig9), so -sparsity and -bits reach
// only "alisa".
func (f *flags) kv(sched string) (sparsity float64, bits int) {
	if sched == "alisa" {
		return f.sparsity, f.bits
	}
	return 0, 16
}

// splitList splits a comma-separated flag into trimmed non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseInts parses a comma-separated positive integer list flag.
func parseInts(s, flagName string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s entry %q: want a positive integer", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses a comma-separated positive float list flag.
func parseRates(s, flagName string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s entry %q: want a positive rate", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}
