package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"

	alisa "repro"
	"repro/internal/workload"
)

// prefixFleet routes a token-carrying open-loop trace — multi-turn
// conversations merged with retrieval-augmented requests — through an
// 8-replica fleet with the prefix cache on and the prefix-affinity
// router. Conversation turns write growing histories into the cache
// (insert, split, evict); RAG requests read a few popular long
// documents (hits). vLLM placement keeps the scheduler cheap, so the
// trie and the router show in the profile. One item is one simulated
// request.
type prefixFleet struct {
	eng   *alisa.Engine
	trace alisa.TraceWorkload
	delay float64 // see delayArrivals
	// tokensIn is the trace's total prompt tokens, the base of the
	// cached-token share.
	tokensIn int64
}

const (
	fleetReplicas = 8
	fleetRouter   = "prefix-affinity"
	fleetMaxSeq   = 2048
	fleetBlock    = 16
	// fleetRate is each source's arrival rate, requests per simulated
	// second: 24 req/s over 8 replicas in all.
	fleetRate = 12.0
)

// fleetTraceSized merges a conversation trace (convs × turns) and rag
// RAG requests, each at fleetRate, by arrival and renumbers them in
// arrival order.
func fleetTraceSized(seed int64, convs, turns, rag int) (alisa.TraceWorkload, error) {
	conv, err := workload.NewConversationTrace(convs, turns, fleetRate, fleetMaxSeq, seed)
	if err != nil {
		return nil, err
	}
	docs, err := workload.NewRAGTrace(rag, fleetRate, fleetMaxSeq, seed+1)
	if err != nil {
		return nil, err
	}
	merged := append(append(alisa.TraceWorkload(nil), conv...), docs...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Arrival < merged[j].Arrival })
	for i := range merged {
		merged[i].ID = i
	}
	return merged, nil
}

// fleetEngine compiles the prefix-fleet replicas' engine: opt-6.7b
// under vLLM placement, batches of up to 8, on a 32 GB V100 (on 16 GB
// the weights leave the cache no room), with the prefix cache on.
func fleetEngine() (*alisa.Engine, error) {
	return alisa.New("opt-6.7b",
		alisa.WithProfile("V100-32GB"), alisa.WithScheduler("vllm"), alisa.WithMaxBatch(8),
		alisa.WithPrefixCache(alisa.PrefixCache{BlockTokens: fleetBlock}))
}

func setupPrefixFleet(o opts) (instance, error) {
	eng, err := fleetEngine()
	if err != nil {
		return nil, err
	}
	convs, turns, rag := 192, 32, 6144
	if o.small {
		convs, turns, rag = 12, 8, 96
	}
	tr, err := fleetTraceSized(o.seed, convs, turns, rag)
	if err != nil {
		return nil, err
	}
	// Set-up stands one fleet up and closes it; each repetition opens its
	// own.
	fleet, err := eng.OpenCluster(context.Background(), alisa.ClusterSpec{Replicas: fleetReplicas, Router: fleetRouter})
	if err != nil {
		return nil, err
	}
	if _, err := fleet.Close(); err != nil {
		return nil, err
	}
	p := &prefixFleet{eng: eng, trace: tr, delay: delayArrivals(tr)}
	for _, r := range tr {
		p.tokensIn += int64(r.Input)
	}
	return p, nil
}

func (p *prefixFleet) inputs() string { return traceDigest(p.trace) }

func (p *prefixFleet) rep(ts *traceSet, mid func()) (repOut, error) {
	out := repOut{items: len(p.trace)}
	fleet, err := p.eng.OpenCluster(context.Background(), alisa.ClusterSpec{Replicas: fleetReplicas, Router: fleetRouter})
	if err != nil {
		out.failed = out.items
		return out, err
	}
	tr := ts.lane()
	res, err := feedCluster(fleet, p.trace, tr, mid)
	if err != nil {
		out.failed = out.items
		return out, err
	}
	out.failed = out.items - res.Completed
	if res.Pushed != out.items {
		out.failed = out.items
	}
	fp := sha256.Sum256([]byte(res.Fingerprint()))
	out.digest = hex.EncodeToString(fp[:])

	var ttfts []float64
	for _, rep := range res.Replicas {
		if rep.Serve == nil {
			continue
		}
		for _, rec := range rep.Serve.Requests {
			ttfts = append(ttfts, rec.TTFT())
		}
	}
	out.values = []value{{name: "sim_goodput_tok_s", unit: "tok/s", better: "higher", exact: true, v: spanGoodput(res.Goodput, res.Makespan, p.delay)}}
	if v, ok := percentile(ttfts, 99); ok {
		out.values = append(out.values, value{name: "sim_ttft_p99_s", unit: "s", better: "lower", exact: true, v: v})
	}

	if ts != nil {
		st := selfTimes(ts.lanes...)
		out.layers = append(out.layers, spanMetrics(st, "cluster.push", "cluster.push_us", "us", 1e6, 50)...)
		out.layers = append(out.layers, spanMetrics(st, "cluster.advance", "cluster.advance_us", "us", 1e6, 50, 99)...)
		maxRouted, sum := 0, 0
		for _, rep := range res.Replicas {
			sum += rep.Routed
			maxRouted = max(maxRouted, rep.Routed)
		}
		mean := float64(sum) / float64(len(res.Replicas))
		out.layers = append(out.layers,
			single("cluster.load_imbalance", "ratio", "lower", float64(maxRouted)/mean, len(res.Replicas)),
			single("prefix.hit_rate", "ratio", "higher", res.PrefixHitRate(), res.PrefixHits+res.PrefixMisses),
			single("prefix.cached_token_share", "ratio", "higher", float64(res.PrefixCachedTokens)/float64(p.tokensIn), len(p.trace)),
			single("prefix.prefill_tokens", "count", "lower", float64(res.PrefillTokens), len(p.trace)),
			single("prefix.shared_bytes_peak", "bytes", "", float64(res.PrefixSharedBytes), len(res.Replicas)),
		)
	}
	return out, nil
}

// feedCluster pushes the trace in arrival order the moment the fleet's
// causal frontier reaches each request (or at once when the fleet is
// idle), so the router sees replica state as of each arrival; then it
// closes the fleet. mid, if non-nil, runs once half the trace is pushed.
func feedCluster(fleet *alisa.Cluster, trace alisa.TraceWorkload, tr *tracer, mid func()) (*alisa.ClusterResult, error) {
	next := 0
	for {
		if next < len(trace) && (trace[next].Arrival <= fleet.Frontier() || fleet.Pending()+fleet.InFlight() == 0) {
			h := tr.begin("cluster.push", trace[next].ID)
			err := fleet.Push(trace[next])
			tr.end(h)
			if err != nil {
				break // latched; Close reports it
			}
			next++
			if next == len(trace)/2 && mid != nil {
				mid()
			}
			continue
		}
		h := tr.begin("cluster.advance", -1)
		progressed, err := fleet.Advance()
		tr.end(h)
		if err != nil || (!progressed && next >= len(trace)) {
			break
		}
	}
	h := tr.begin("cluster.close", -1)
	defer tr.end(h)
	return fleet.Close()
}
