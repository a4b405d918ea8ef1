package main

import (
	"io"
	"path/filepath"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	def := definition{EndToEnd: []metricDef{
		{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	doc := func(seed int64, failed int, metrics ...metric) document {
		return document{Results: []result{{Workload: "w", Seed: seed, Attempted: 100, Failed: failed, EndToEnd: append(metrics,
			single("fail_ratio", "ratio", "lower", float64(failed)/100, 100))}}}
	}
	rate := func(samples ...float64) metric { return sampled("items_per_s", "1/s", "higher", samples) }
	heap := func(samples ...float64) metric { return sampled("heap_mb", "MB", "lower", samples) }
	sim := func(v float64) metric {
		m := sampled("sim_goodput_tok_s", "tok/s", "higher", []float64{v, v, v})
		m.Exact = true
		return m
	}
	verdicts := func(old, new document) map[string]string {
		out := map[string]string{}
		for _, r := range compareDocs(def, old, new) {
			out[r.metric] = r.verdict
		}
		return out
	}

	for _, tc := range []struct {
		name     string
		old, new document
		want     map[string]string
	}{
		{
			name: "within bounds",
			old:  doc(1, 0, rate(100, 101, 102), heap(10, 10, 10), sim(5)),
			new:  doc(1, 0, rate(97, 98, 99), heap(10.5, 10.5, 10.5), sim(5)),
			want: map[string]string{"items_per_s": verdictUnchanged, "heap_mb": verdictUnchanged, "sim_goodput_tok_s": verdictUnchanged, "fail_ratio": verdictUnchanged},
		},
		{
			name: "regression and improvement",
			old:  doc(1, 0, rate(100, 101, 102), heap(10, 10, 10)),
			new:  doc(1, 0, rate(80, 81, 82), heap(8, 8, 8)),
			want: map[string]string{"items_per_s": verdictRegression, "heap_mb": verdictImproved},
		},
		{
			name: "spread wider than the bound",
			old:  doc(1, 0, rate(60, 100, 140), heap(10, 10, 10)),
			new:  doc(1, 0, rate(50, 80, 120), heap(10, 10, 10)),
			want: map[string]string{"items_per_s": verdictUnresolved},
		},
		{
			name: "wide spread but every new sample better",
			old:  doc(1, 0, rate(60, 70, 80), heap(10, 10, 10)),
			new:  doc(1, 0, rate(90, 110, 130), heap(10, 10, 10)),
			want: map[string]string{"items_per_s": verdictImproved},
		},
		{
			name: "simulated result moved",
			old:  doc(1, 0, sim(5)),
			new:  doc(1, 0, sim(5.000001)),
			want: map[string]string{"sim_goodput_tok_s": verdictChanged},
		},
		{
			name: "simulated result under another seed",
			old:  doc(1, 0, sim(5)),
			new:  doc(2, 0, sim(6)),
			want: map[string]string{"sim_goodput_tok_s": verdictInfo},
		},
		{
			name: "more failures",
			old:  doc(1, 0, rate(100, 100, 100)),
			new:  doc(1, 1, rate(100, 100, 100)),
			want: map[string]string{"fail_ratio": verdictRegression, "items_per_s": verdictUnchanged},
		},
		{
			name: "metric gone",
			old:  doc(1, 0, rate(100, 100, 100), heap(10, 10, 10)),
			new:  doc(1, 0, rate(100, 100, 100)),
			want: map[string]string{"heap_mb": verdictMissing},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := verdicts(tc.old, tc.new)
			for metric, want := range tc.want {
				if got[metric] != want {
					t.Errorf("%s: verdict %q, want %q (all: %v)", metric, got[metric], want, got)
				}
			}
		})
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpuMs ...float64) string {
		path := filepath.Join(dir, name)
		d := document{Results: []result{{Workload: "w", Seed: 1, Attempted: 1, EndToEnd: []metric{sampled("cpu_ms_per_item", "ms", "lower", cpuMs)}}}}
		if err := writeDocument(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100, 101, 102)
	same := write("same.json", 99, 100, 101)
	slow := write("slow.json", 200, 202, 204)
	if code := runCompare(io.Discard, definitionPath, base, same); code != 0 {
		t.Errorf("identical runs: exit %d, want 0", code)
	}
	if code := runCompare(io.Discard, definitionPath, base, slow); code != 1 {
		t.Errorf("doubled CPU time: exit %d, want 1", code)
	}
	if code := runCompare(io.Discard, definitionPath, base, filepath.Join(dir, "absent.json")); code != 2 {
		t.Errorf("missing document: exit %d, want 2", code)
	}
}
