package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// replayConfig is a pressured, heterogeneous workload that exercises
// admission, offloading, and completions — the paths whose ordering a
// nondeterministic loop would scramble. The determinism suite records the
// observer stream: the stream is the replay artifact it pins.
func replayConfig(scheduler string) Config {
	return Config{
		Model:      model.MustByName("opt-6.7b"),
		Profile:    memsim.V100_16G(),
		Scheduler:  scheduler,
		Trace:      workload.PoissonTrace(20, 3.0, 42),
		KVSparsity: 0.8,
		KVBits:     8,
		MaxBatch:   8,
	}
}

// recorder flattens every streamed event into a string at full float
// precision, so two runs' event streams — kinds, order, and payloads —
// compare as one slice.
type recorder struct{ events []string }

func (r *recorder) observer() events.Observer {
	return events.Observer{
		Step: func(e events.Step) {
			r.events = append(r.events, fmt.Sprintf("step %+v", e))
		},
		Admission: func(e events.Admission) {
			r.events = append(r.events, fmt.Sprintf("admit %+v", e))
		},
		FirstToken: func(e events.FirstToken) {
			r.events = append(r.events, fmt.Sprintf("first %+v", e))
		},
		Token: func(e events.Token) {
			r.events = append(r.events, fmt.Sprintf("token %+v", e))
		},
		Preemption: func(e events.Preemption) {
			r.events = append(r.events, fmt.Sprintf("preempt %+v", e))
		},
		Completion: func(e events.Completion) {
			r.events = append(r.events, fmt.Sprintf("finish %+v", e))
		},
	}
}

// recordedRun runs cfg with a fresh recorder attached and returns the
// result with the recorded stream.
func recordedRun(t *testing.T, cfg Config) (*Result, []string) {
	t.Helper()
	rec := &recorder{}
	cfg.Observer = rec.observer()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, rec.events
}

// checkStream reports the first event at which got diverges from want.
func checkStream(t *testing.T, what string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("%s: event %d diverged:\nwant: %s\ngot:  %s", what, i, want[i], got[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", what, len(got), len(want))
	}
}

// resultFingerprint flattens everything the replay contract pins: the
// full observer stream plus the per-request records.
func resultFingerprint(res *Result, stream []string) string {
	fp := strings.Join(stream, "\n")
	fp += res.Scheduler
	for _, r := range res.Requests {
		fp += "|" + r.String()
	}
	return fp
}

// TestServeReplayDeterminism runs the same (seed, trace, config) twice per
// scheduler and across GOMAXPROCS settings: the observer stream and
// metrics must be byte-identical — the serving analogue of the oracle's
// EvaluateSequential pinning.
func TestServeReplayDeterminism(t *testing.T) {
	for _, name := range []string{"alisa", "vllm", "hf-accelerate"} {
		t.Run(name, func(t *testing.T) {
			cfg := replayConfig(name)
			first, stream := recordedRun(t, cfg)
			want := resultFingerprint(first, stream)

			// Re-run in-process, then under different GOMAXPROCS values:
			// the loop is single-goroutine by design and must not observe
			// the scheduler's parallelism at all.
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, procs := range []int{0, 1, 2, runtime.NumCPU()} {
				if procs > 0 {
					runtime.GOMAXPROCS(procs)
				}
				if got := resultFingerprint(recordedRun(t, cfg)); got != want {
					t.Fatalf("replay diverged at GOMAXPROCS=%d:\nfirst difference in fingerprints of %d vs %d bytes",
						procs, len(want), len(got))
				}
			}

			// Metric-level pinning: identical floats, not just close ones.
			res, _ := recordedRun(t, cfg)
			if res.Throughput != first.Throughput || res.Goodput != first.Goodput ||
				res.TTFT != first.TTFT || res.TPOT != first.TPOT || res.E2E != first.E2E ||
				res.Preemptions != first.Preemptions || res.MeanBatch != first.MeanBatch {
				t.Fatalf("aggregate metrics drifted between identical runs")
			}
		})
	}
}

// TestServeEventStreamShape sanity-checks the pinned artifact itself:
// one admission and one first token per admission, one completion per
// request, re-admissions exactly matching preemptions, and every event
// timestamped in nondecreasing order.
func TestServeEventStreamShape(t *testing.T) {
	cfg := replayConfig("alisa")
	admits, firsts, preempts, finishes := 0, 0, 0, 0
	last := 0.0
	at := func(kind string, clock float64) {
		if clock < last {
			t.Errorf("%s at %v after an event at %v", kind, clock, last)
		}
		last = clock
	}
	cfg.Observer = events.Observer{
		Step:       func(e events.Step) { at("step", e.Clock) },
		Admission:  func(e events.Admission) { admits++; at("admission", e.Clock) },
		FirstToken: func(e events.FirstToken) { firsts++; at("first token", e.Clock) },
		Token:      func(e events.Token) { at("token", e.Clock) },
		Preemption: func(e events.Preemption) { preempts++; at("preemption", e.Clock) },
		Completion: func(e events.Completion) { finishes++; at("completion", e.Clock) },
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Requests)
	if finishes != n {
		t.Errorf("completion events %d != requests %d", finishes, n)
	}
	if admits != n+preempts {
		t.Errorf("admission events %d != requests %d + preemptions %d", admits, n, preempts)
	}
	if firsts != admits {
		t.Errorf("first-token events %d != admissions %d", firsts, admits)
	}
	if preempts != res.Preemptions {
		t.Errorf("preemption events %d != reported %d", preempts, res.Preemptions)
	}
}
