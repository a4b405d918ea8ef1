package main

import (
	"context"
	"errors"
	"testing"

	alisa "repro"
)

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
	if _, err := classifyCell(nil, false, (*alisa.ServeResult)(nil), nil, false, 1); err == nil {
		t.Error("unstarted cell: no skip error")
	}
	fleet := &alisa.ClusterResult{Completed: 3}
	if suffix, err := classifyCell(nil, true, fleet, context.Canceled, true, 16); suffix != " (cancelled: 3/16 done)" || err != nil {
		t.Errorf("cancelled fleet: got (%q, %v)", suffix, err)
	}
}
