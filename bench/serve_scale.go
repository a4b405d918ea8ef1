package main

import (
	"context"
	"fmt"

	alisa "repro"
	"repro/internal/workload"
)

// serveScale streams a seeded open-loop Poisson trace through one
// scale-mode Session (streaming digests, O(in-flight) memory) under the
// paper's scheduler. Requests carry no tokens, so the prefix cache is
// bypassed. One item is one simulated request.
type serveScale struct {
	eng   *alisa.Engine
	trace alisa.TraceWorkload
	delay float64 // see delayArrivals
}

const (
	// serveScaleRate is the offered load, requests per simulated second:
	// below the ~3.55 req/s this configuration completes at saturation, so
	// a queue forms (p99 TTFT about 5 s, mean batch about 12.8) but the
	// backlog does not grow.
	serveScaleRate = 3.0
	// pushLookahead is how far ahead of the simulated clock requests are
	// pushed, in simulated seconds — longer than any one turn, so every
	// request is queued before the clock reaches its arrival.
	pushLookahead = 10.0
)

// serveScaleEngine compiles the serve-scale engine: opt-6.7b under the
// paper's scheduler at 80% KV sparsity with INT8 KV, batches of up to
// 16, on a 32 GB V100. On the 16 GB part, memory-pressure preemptions
// vary from 25 to 308 per 12,000 requests between seeds, and the work
// with them by ±10%, more than the benchmark's spread allows; on 32 GB
// none occur and capacity, still set by the batch limit, is the same.
func serveScaleEngine(extra ...alisa.Option) (*alisa.Engine, error) {
	return alisa.New("opt-6.7b", append([]alisa.Option{
		alisa.WithProfile("V100-32GB"), alisa.WithScheduler("alisa"), alisa.WithKVSparsity(0.8),
		alisa.WithKVBits(8), alisa.WithMaxBatch(16)}, extra...)...)
}

func setupServeScale(o opts) (instance, error) {
	n := 12000
	if o.small {
		n = 200
	}
	eng, err := serveScaleEngine(alisa.WithExactMetrics(-1))
	if err != nil {
		return nil, err
	}
	tr, err := workload.NewPoissonTrace(n, serveScaleRate, o.seed)
	if err != nil {
		return nil, err
	}
	delay := delayArrivals(tr)
	// Opening a session reserves the replica's static memory; set-up
	// stands one up and closes it, each repetition opens its own.
	sess, err := eng.Open(context.Background())
	if err != nil {
		return nil, err
	}
	if _, err := sess.Close(); err != nil {
		return nil, err
	}
	return &serveScale{eng: eng, trace: tr, delay: delay}, nil
}

func (s *serveScale) inputs() string { return traceDigest(s.trace) }

func (s *serveScale) rep(ts *traceSet, mid func()) (repOut, error) {
	out := repOut{items: len(s.trace)}
	sess, err := s.eng.Open(context.Background())
	if err != nil {
		out.failed = out.items
		return out, err
	}
	var waits []float64
	if ts != nil {
		// The queue wait of each admission, collected only when traced:
		// an observer is work the untraced repetitions do not pay.
		err := sess.Subscribe(alisa.ObserverFuncs{Admission: func(e alisa.AdmissionEvent) { waits = append(waits, e.Wait) }})
		if err != nil {
			return out, err
		}
	}
	tr := ts.lane()
	fr, err := feedSession(sess, s.trace, tr, mid)
	if err != nil {
		out.failed = out.items
		return out, err
	}
	res := fr.res
	out.failed = out.items - res.Completed
	if fr.late > 0 {
		out.failed += fr.late
	}
	out.digest = fmt.Sprintf("completed=%d makespan=%.9g goodput=%.9g ttft99=%.9g pre=%d meanbatch=%.9g",
		res.Completed, res.Makespan, res.Goodput, res.TTFT.P99, res.Preemptions, res.MeanBatch)
	out.values = []value{
		{name: "sim_goodput_tok_s", unit: "tok/s", better: "higher", exact: true, v: spanGoodput(res.Goodput, res.Makespan, s.delay)},
		{name: "sim_ttft_p99_s", unit: "s", better: "lower", exact: true, v: res.TTFT.P99},
	}
	if ts != nil {
		st := selfTimes(ts.lanes...)
		n := float64(len(s.trace))
		out.layers = append(out.layers, spanMetrics(st, "serve.push", "serve.push_ns", "ns", 1e9, 50)...)
		out.layers = append(out.layers, spanMetrics(st, "serve.advance", "serve.advance_us", "us", 1e6, 50, 99)...)
		out.layers = append(out.layers,
			single("serve.turns_per_req", "count", "lower", float64(fr.turns)/n, fr.turns),
			single("serve.mean_batch", "count", "", res.MeanBatch, fr.turns),
			single("serve.preemptions", "count", "lower", float64(res.Preemptions), res.Completed),
		)
		if v, ok := percentile(waits, 50); ok {
			out.layers = append(out.layers, single("serve.queue_wait_s.p50", "s", "lower", v, len(waits)))
		}
	}
	return out, nil
}

// feedResult is the outcome of feeding a trace through a session.
type feedResult struct {
	res   *alisa.ServeResult
	turns int // Advance calls
	late  int // requests the clock reached before they were pushed
}

// feedSession pushes the trace into the session incrementally — each
// request before the simulated clock reaches its arrival — advancing the
// session turn by turn, then closes it. mid, if non-nil, runs once half
// the trace is pushed.
func feedSession(sess *alisa.Session, trace alisa.TraceWorkload, tr *tracer, mid func()) (feedResult, error) {
	var fr feedResult
	next := 0
	for {
		// An idle session jumps to the next arrival, so it is pushed ahead
		// of that arrival instead of the clock.
		horizon := sess.Clock()
		if next < len(trace) && sess.Pending()+sess.InFlight() == 0 {
			horizon = max(horizon, trace[next].Arrival)
		}
		for next < len(trace) && trace[next].Arrival <= horizon+pushLookahead {
			h := tr.begin("serve.push", trace[next].ID)
			err := sess.Push(trace[next])
			tr.end(h)
			if err != nil {
				return fr, err
			}
			next++
			if next == len(trace)/2 && mid != nil {
				mid()
			}
		}
		h := tr.begin("serve.advance", -1)
		progressed, err := sess.Advance()
		tr.end(h)
		fr.turns++
		if err != nil {
			break // latched; Close reports it
		}
		if next < len(trace) && trace[next].Arrival < sess.Clock() {
			fr.late++
		}
		if !progressed && next >= len(trace) {
			break
		}
	}
	h := tr.begin("serve.close", -1)
	res, err := sess.Close()
	tr.end(h)
	fr.res = res
	return fr, err
}

// traceDigest identifies a trace by every request's shape and arrival,
// and its token content by length and a rolling sum.
func traceDigest(t alisa.TraceWorkload) string {
	var sum uint64 = 1469598103934665603
	for _, r := range t {
		for _, v := range []uint64{uint64(r.ID), uint64(r.Arrival * 1e9), uint64(r.Input), uint64(r.Output), uint64(len(r.Tokens))} {
			sum = (sum ^ v) * 1099511628211
		}
		for _, tok := range r.Tokens {
			sum = (sum ^ uint64(tok)) * 1099511628211
		}
	}
	return fmt.Sprintf("%d:%016x", len(t), sum)
}

// delayArrivals delays every arrival of t by its last one, so that all
// arrivals lie between the last and twice the last, and returns the
// delay.
//
// It keeps the serving loop's idle jump exact. A replica idle at clock a
// moves to the next arrival b by adding b − a, which can land one unit in
// the last place short of b when a < b/2; the replica then finds nothing
// admissible on an empty system and reports the request unservable. With
// the delay, a replica that has served anything has a clock of at least
// the delay, and every arrival is at most twice it, so b − a is exact
// (Sterbenz's lemma) and the jump lands on b; the first jump of a
// replica, from clock 0, is exact anyway. Serving is the same under the
// delay but for times measured from clock 0: see spanGoodput.
func delayArrivals(t alisa.TraceWorkload) float64 {
	if len(t) == 0 {
		return 0
	}
	delay := t[len(t)-1].Arrival
	for i := range t {
		t[i].Arrival += delay
	}
	return delay
}

// spanGoodput is a goodput over the delayed trace's own span: the serving
// loop divides by the makespan from clock 0, which the delay lengthens.
func spanGoodput(goodput, makespan, delay float64) float64 {
	if makespan <= delay {
		return 0
	}
	return goodput * makespan / (makespan - delay)
}
