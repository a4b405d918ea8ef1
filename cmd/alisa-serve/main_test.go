package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	alisa "repro"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		n, parallel int
		think       float64
		sweep       string
		closedLoop  string
		workload    string
		prefixCache bool
		prefixBlock int
		wantErr     string
	}{
		{"defaults", 48, 1, 0.5, "", "", "", false, 16, ""},
		{"parallel zero is GOMAXPROCS", 48, 0, 0.5, "1,2", "", "", false, 16, ""},
		{"zero n", 0, 1, 0.5, "", "", "", false, 16, "-n must be positive"},
		{"negative n", -3, 1, 0.5, "", "", "", false, 16, "-n must be positive"},
		{"negative parallel", 48, -2, 0.5, "", "", "", false, 16, "-parallel must be ≥ 0"},
		{"sweep and closed-loop", 48, 1, 0.5, "1,2", "4,8", "", false, 16, "pick one"},
		{"negative think", 48, 1, -0.1, "", "", "", false, 16, "-think must be ≥ 0"},
		{"closed loop alone", 48, 1, 0, "", "4,8", "", false, 16, ""},
		{"conv open loop", 48, 1, 0.5, "", "", "conv", true, 16, ""},
		{"conv closed loop", 48, 1, 0.5, "", "2,4", "conv", true, 16, ""},
		{"agent closed loop", 48, 1, 0.5, "", "2,4", "agent", true, 16, ""},
		{"agent open loop", 48, 1, 0.5, "", "", "agent", true, 16, "closed-loop only"},
		{"rag open loop", 48, 1, 0.5, "", "", "rag", true, 16, ""},
		{"rag closed loop", 48, 1, 0.5, "", "2,4", "rag", true, 16, "open-loop only"},
		{"unknown workload", 48, 1, 0.5, "", "", "batch", false, 16, "unknown -workload"},
		{"zero prefix block", 48, 1, 0.5, "", "", "conv", true, 0, "-prefix-block must be positive"},
		{"negative prefix block", 48, 1, 0.5, "", "", "", true, -8, "-prefix-block must be positive"},
		{"bad block ignored when cache off", 48, 1, 0.5, "", "", "", false, 0, ""},
	}
	for _, tc := range cases {
		err := validateFlags(tc.n, tc.parallel, tc.think, tc.sweep, tc.closedLoop,
			tc.workload, tc.prefixCache, tc.prefixBlock)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMakeTrace(t *testing.T) {
	for _, tc := range []struct {
		workload string
		n, want  int
	}{
		{"", 48, 48},
		{"conv", 48, 48}, // 8 conversations × 6 turns
		{"conv", 50, 54}, // rounded up to 9 whole conversations
		{"rag", 32, 32},
	} {
		tr, err := makeTrace(tc.workload, tc.n, 2.0, 7)
		if err != nil {
			t.Fatalf("%q: %v", tc.workload, err)
		}
		if len(tr) != tc.want {
			t.Errorf("%q n=%d: trace length %d, want %d", tc.workload, tc.n, len(tr), tc.want)
		}
		if tc.workload != "" && len(tr[0].Tokens) == 0 {
			t.Errorf("%q: trace carries no token IDs", tc.workload)
		}
	}
}

// TestClassifyCell pins the cell labels. A cancelled scale-mode cell (more
// requests than the exact-metrics threshold) keeps no per-request
// records, so its progress must come from Completed.
func TestClassifyCell(t *testing.T) {
	boom := errors.New("boom")
	scale := &alisa.ServeResult{Completed: 5}
	cases := []struct {
		name        string
		compileErr  error
		res         *alisa.ServeResult
		runErr      error
		interrupted bool
		wantSuffix  string
		wantErr     error
	}{
		{"healthy", nil, scale, nil, false, "", nil},
		{"compile error", boom, nil, nil, false, "", boom},
		{"run error", nil, nil, boom, false, "", boom},
		{"cancelled scale mode", nil, scale, context.Canceled, true, " (cancelled: 5/100000 done)", nil},
	}
	for _, c := range cases {
		suffix, err := classifyCell(c.compileErr, true, c.res, c.runErr, c.interrupted, 100000)
		if suffix != c.wantSuffix || err != c.wantErr {
			t.Errorf("%s: got (%q, %v), want (%q, %v)", c.name, suffix, err, c.wantSuffix, c.wantErr)
		}
	}
	if _, err := classifyCell(nil, false, nil, nil, false, 1); err == nil {
		t.Error("unstarted cell: no skip error")
	}
}
