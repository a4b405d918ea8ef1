// Command bench is the repository's one benchmark. It runs four named
// workloads — the paper evaluation, a scale-mode serving stream, a
// prefix-caching fleet, and the HTTP gateway — each as one fixed amount
// of work per repetition, and reports end-to-end metrics as medians over
// repetitions with their quartiles and sample counts. A traced run adds
// per-layer metrics: self times of the spans the benchmark records
// around every call it makes into a layer, and fixed probes that time
// one public function per layer. Every workload checks its outputs; a
// failed check makes the run exit non-zero. The end-to-end times are the
// process's CPU time (see cpuTime), which a shared machine's other
// tenants move far less than wall time, converted to a reference core
// speed read around each timed section (calib.go).
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve-scale --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh --json run1.json                 # also write the full result document
//	bash bench/run.sh --trace 1                        # traced run; trace files in bench/out/
//	bash bench/run.sh --compare run1.json run2.json    # regression check between two documents
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; metrics holds the end-to-end
// metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics,
// each as {"value", "unit"}. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// opts configures one measurement of one workload.
type opts struct {
	seed    int64
	seconds float64 // measured wall time per workload, after warm-up
	trace   bool    // add the traced repetition and the layer probes
	small   bool    // tiny inputs, for the smoke test
	outDir  string  // where traced runs write <workload>.trace.json
}

// metric is one named measurement with its spread. Per-repetition
// metrics keep their samples; metrics derived from many calls of one
// traced repetition carry the derived value as their median and the
// call count as N.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better,omitempty"` // "lower" or "higher"; empty for counts reported as-is
	// Exact marks simulated results, which are deterministic for a seed:
	// two runs of one commit must report them bit for bit.
	Exact bool `json:"exact,omitempty"`
	summary
	Samples []float64 `json:"samples,omitempty"`
}

func sampled(name, unit, better string, samples []float64) metric {
	return metric{Name: name, Unit: unit, Better: better, summary: summarize(samples), Samples: samples}
}

// single reports one derived value computed from n underlying samples.
func single(name, unit, better string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Better: better, summary: summary{Median: v, Q1: v, Q3: v, N: n}}
}

// result is one workload's measurement.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest identifies the workload's deterministic output (the rendered
	// evaluation, or the simulated results) for this seed.
	Digest string `json:"digest"`
	// Slowdown summarizes the speed readings taken after each timed
	// repetition: how much slower than the reference speed the core ran
	// (calib.go), which the reported CPU times undo.
	Slowdown summary  `json:"slowdown"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) find(name string) (metric, bool) {
	for _, list := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// document is the full result of one invocation, the input of -compare.
type document struct {
	Schema     int      `json:"schema"`
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Seconds    float64  `json:"seconds"`
	Results    []result `json:"results"`
}

// traceFlag accepts --trace 0|1 (and true/false) with a separate value,
// the form the benchmark contract passes.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload, after set-up and warm-up")
	var traced traceFlag
	fs.Var(&traced, "trace", "1 adds a traced repetition and the layer probes, and reports per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full result document to this file")
	compare := fs.Bool("compare", false, "compare two result documents given as arguments: old.json new.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result documents: old.json new.json")
			return 2
		}
		return runCompare(os.Stdout, *bounds, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 0 {
		fs.Usage()
		return 2
	}

	var selected []workloadDef
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	o := opts{seed: *seed, seconds: *seconds, trace: bool(traced), outDir: "bench/out"}
	doc := document{
		Schema: 2, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seconds: *seconds,
	}
	for _, w := range selected {
		r := measure(w, o)
		printReport(os.Stdout, r)
		doc.Results = append(doc.Results, r)
	}
	if *jsonOut != "" {
		if err := writeDocument(*jsonOut, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	attempted, failed, checks := 0, 0, 0
	for _, r := range doc.Results {
		attempted += r.Attempted
		failed += r.Failed
		checks += len(r.Failures)
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, f)
		}
	}
	if len(doc.Results) == 1 {
		line, err := contractLine(*bounds, doc.Results[0], o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	if failed > 0 || checks > 0 || attempted == 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d attempted items failed, %d checks failed\n", failed, attempted, checks)
		return 1
	}
	return 0
}

// contractLine renders the one-line result: the end-to-end metrics named
// in the benchmark definition, or its per-layer metrics for a traced run.
func contractLine(boundsPath string, r result, traced bool) (string, error) {
	def, err := loadDefinition(boundsPath)
	if err != nil {
		return "", err
	}
	list := def.EndToEnd
	if traced {
		list = def.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, d := range list {
		m, ok := r.find(d.Name)
		if !ok {
			return "", fmt.Errorf("workload %s did not report metric %s", r.Workload, d.Name)
		}
		metrics[d.Name] = value{Value: m.Median, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && len(r.Failures) == 0, r.Attempted, r.Failed, metrics})
	return string(b), err
}

func writeDocument(path string, doc document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport writes one workload's metrics as a table: name, unit,
// median, quartiles and sample count.
func printReport(w *os.File, r result) {
	fmt.Fprintf(w, "== %s  seed=%d  attempted=%d failed=%d  slowdown=%.3f  digest=%s\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Slowdown.Median, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, section := range []struct {
		title string
		list  []metric
	}{{"end to end", r.EndToEnd}, {"per layer", r.PerLayer}} {
		if len(section.list) == 0 {
			continue
		}
		fmt.Fprintf(w, "   %s\n", section.title)
		fmt.Fprintf(w, "   %-32s %-8s %14s %14s %14s %7s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, m := range section.list {
			fmt.Fprintf(w, "   %-32s %-8s %14.6g %14.6g %14.6g %7d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
		}
	}
	fmt.Fprintln(w)
}
