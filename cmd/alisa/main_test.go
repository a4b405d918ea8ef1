package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTranscripts pins the command line byte for byte. Each testdata
// file is the stdout of a documented or CI invocation, captured from the
// six single-purpose binaries this command replaced; it must reproduce
// under the subcommand spelling. Where a default changed since, the old
// value is written out (tune's -model and -batch, cluster's -max-batch).
// sim-flexgen-dense was captured as an explicit dense FP16 FlexGen run
// and now reproduces at sim's defaults.
func TestTranscripts(t *testing.T) {
	ranIn := regexp.MustCompile(`ran in [^)]*`)
	for _, tc := range []struct{ golden, args string }{
		{"paper-list", "paper -list"},
		{"paper-table1", "paper -run table1"},
		{"sim", "sim"},
		{"sim-flexgen-dense", "sim -sched flexgen"},
		{"tune", "tune -model opt-13b -batch 64"},
		{"serve-sweep", "serve -n 48 -rates 1,2,4,8"},
		{"serve-closed-loop", "serve -closed-loop 1,2,4,8,16,32 -n 96 -think 0.5 -sched alisa,vllm,hf-accelerate"},
		{"serve-prefix-conv", "serve -prefix-cache -workload conv -n 48 -rates 4 -profile V100-32GB"},
		{"serve-ci-closed-loop", "serve -closed-loop 1,4 -n 12 -sched alisa,vllm"},
		{"serve-ci-prefix", "serve -prefix-cache -workload conv -closed-loop 2,4 -n 24 -profile V100-32GB -sched alisa,vllm"},
		{"serve-agent", "serve -prefix-cache -workload agent -closed-loop 2,4 -n 24 -profile V100-32GB"},
		{"cluster", "cluster -n 96 -replicas 1,2,4 -rates 2,8,32 -slo-ttft 2 -slo-tpot 0.3 -parallel 0 -max-batch 8"},
		{"cluster-ci", "cluster -n 16 -replicas 1,2 -rates 4 -routers round-robin,least-kv -parallel 0 -max-batch 8"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("alisa %s: exit %d\n%s", tc.args, code, stderr.String())
			}
			checkEqual(t, ranIn.ReplaceAllString(stdout.String(), "ran in X"), string(want), "alisa "+tc.args)
		})
	}
}

// checkEqual reports got ≠ want at the first differing byte offset.
func checkEqual(t *testing.T, got, want, desc string) {
	t.Helper()
	if got == want {
		return
	}
	pos := 0
	for pos < len(got) && pos < len(want) && got[pos] == want[pos] {
		pos++
	}
	t.Errorf("%s: output mismatch at byte %d\nwant:\n%s\ngot:\n%s\nwant from there: %q\ngot from there:  %q",
		desc, pos, want, got, want[pos:], got[pos:])
}

// TestDispatch pins the exit codes: usage naming every subcommand and 2
// for no or an unknown subcommand or a flag the subcommand does not
// take, 1 for a value the run rejects.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		code  int
		usage bool
	}{
		{nil, 2, true},
		{[]string{"bogus"}, 2, true},
		{[]string{"serve", "-sweep", "1,2"}, 2, false},
		{[]string{"cluster", "-routers", "bogus"}, 1, false},
		{[]string{"paper", "-run", "bogus"}, 1, false},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("alisa %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !tc.usage {
			continue
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), "  "+c.name+" ") {
				t.Errorf("alisa %v: usage does not name %s:\n%s", tc.args, c.name, stderr.String())
			}
		}
	}
	if len(commands) != 6 || len(accepts) != len(commands) {
		t.Fatalf("%d subcommands with %d flag lists, want 6 each", len(commands), len(accepts))
	}
	for _, c := range commands {
		if _, ok := accepts[c.name]; !ok {
			t.Errorf("subcommand %s has no flag list", c.name)
		}
	}
}
