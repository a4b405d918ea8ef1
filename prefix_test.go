package alisa

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// prefixEngine builds the cache-on engine the scripted-workload tests
// use: dense FP16 on the 32G card, whose post-static headroom gives the
// cache a budget that holds a conversation working set.
func prefixEngine(t *testing.T, extra ...Option) *Engine {
	t.Helper()
	opts := append([]Option{
		WithProfile("V100-32GB"),
		WithMaxBatch(8),
		WithPrefixCache(PrefixCache{BlockTokens: 16}),
	}, extra...)
	eng, err := New("opt-6.7b", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestServeScriptedPrefixSharing is the public-surface acceptance test:
// conversation clients driven through ServeScripted on a cache-on
// engine hit the prefix cache, prefill fewer tokens than the same
// scripts on a cache-off engine, and the whole run is deterministic.
func TestServeScriptedPrefixSharing(t *testing.T) {
	ctx := context.Background()
	run := func(eng *Engine) *ServeResult {
		res, err := eng.ServeScripted(ctx, NewConversationClients(4, 6, 0.5, 2048, 11))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Requests) != 4*6 {
			t.Fatalf("completed %d of %d scripted requests", len(res.Requests), 4*6)
		}
		return res
	}

	off, err := New("opt-6.7b", WithProfile("V100-32GB"), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	roff := run(off)
	if roff.PrefixHits != 0 || roff.PrefixCachedTokens != 0 {
		t.Fatalf("cache-off engine reported prefix activity: %+v", roff)
	}

	ron := run(prefixEngine(t))
	if ron.PrefixHits == 0 || ron.PrefixCachedTokens == 0 || ron.PrefixSharedBytes <= 0 {
		t.Fatalf("cache-on engine saw no sharing: hits=%d cached=%d shared=%d",
			ron.PrefixHits, ron.PrefixCachedTokens, ron.PrefixSharedBytes)
	}
	if ron.PrefillTokens >= roff.PrefillTokens {
		t.Errorf("cache did not reduce prefill: off=%d on=%d tokens",
			roff.PrefillTokens, ron.PrefillTokens)
	}

	again := run(prefixEngine(t))
	if !reflect.DeepEqual(ron, again) {
		t.Fatal("scripted cache-on run not deterministic")
	}
}

// TestServeScriptedValidation pins the scripted runner's input checks.
func TestServeScriptedValidation(t *testing.T) {
	eng := prefixEngine(t)
	ctx := context.Background()
	var ce *ConfigError
	if _, err := eng.ServeScripted(ctx, nil); !errors.As(err, &ce) || ce.Field != "Clients" {
		t.Errorf("empty clients: err = %v, want ConfigError on Clients", err)
	}
	clients := NewConversationClients(2, 2, 0.5, 2048, 1)
	clients[1] = nil
	if _, err := eng.ServeScripted(ctx, clients); !errors.As(err, &ce) || ce.Field != "Clients" {
		t.Errorf("nil client: err = %v, want ConfigError on Clients", err)
	}
}

// TestWithPrefixCacheValidation walks the option's field errors.
func TestWithPrefixCacheValidation(t *testing.T) {
	cases := []struct {
		pc    PrefixCache
		field string
	}{
		{PrefixCache{BlockTokens: 0}, "PrefixBlock"},
		{PrefixCache{BlockTokens: -16}, "PrefixBlock"},
	}
	for _, tc := range cases {
		var ce *ConfigError
		if _, err := New("opt-6.7b", WithPrefixCache(tc.pc)); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%+v: err = %v, want ConfigError on %s", tc.pc, err, tc.field)
		}
	}
	if _, err := New("opt-6.7b", WithPrefixCache(PrefixCache{BlockTokens: 16})); err != nil {
		t.Errorf("valid prefix cache rejected: %v", err)
	}
}

// TestAgentAndRAGWorkloads smoke-tests the other two prefix workload
// shapes end to end: agent loops share their tool preamble through the
// cache, and the RAG trace's popularity-skewed document prefixes reuse
// across requests.
func TestAgentAndRAGWorkloads(t *testing.T) {
	ctx := context.Background()

	agents, err := prefixEngine(t).ServeScripted(ctx, NewAgentClients(3, 5, 0.25, 2048, 17))
	if err != nil {
		t.Fatal(err)
	}
	if len(agents.Requests) != 3*5 {
		t.Fatalf("agent run completed %d of %d", len(agents.Requests), 3*5)
	}
	if agents.PrefixHits == 0 {
		t.Error("agent loops shared no prefixes — the tool preamble should hit")
	}

	tr, err := NewRAGTrace(48, 8.0, 2048, 23)
	if err != nil {
		t.Fatal(err)
	}
	rag, err := prefixEngine(t).Serve(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rag.Requests) != len(tr) {
		t.Fatalf("rag run completed %d of %d", len(rag.Requests), len(tr))
	}
	if rag.PrefixHits == 0 {
		t.Error("rag trace shared no prefixes — popular documents should hit")
	}
}
