package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// paperEval renders every table and figure of the paper's evaluation —
// what a reproducer runs. One item is one whole suite.
type paperEval struct {
	runners []experiments.Runner
	spans   []string // span name per runner, built once
}

// smallRunners is the subset the smoke test renders: every runner but
// the accuracy sweeps, which alone take seconds.
var smallRunners = map[string]bool{"table1": true, "fig2c": true, "fig10": true, "fig11": true, "fig12a": true}

func setupPaperEval(o opts) (instance, error) {
	p := &paperEval{}
	for _, r := range experiments.All() {
		if o.small && !smallRunners[r.ID] {
			continue
		}
		p.runners = append(p.runners, r)
		p.spans = append(p.spans, "experiments."+r.ID)
	}
	if len(p.runners) == 0 {
		return nil, fmt.Errorf("no experiment runners")
	}
	return p, nil
}

func (p *paperEval) inputs() string { return strings.Join(p.spans, ",") }

func (p *paperEval) rep(ts *traceSet, mid func()) (repOut, error) {
	tr := ts.lane()
	out := repOut{items: 1}
	h := sha256.New()
	root := tr.begin("experiments.suite", -1)
	for i, r := range p.runners {
		if i == len(p.runners)/2 {
			mid()
		}
		sp := tr.begin(p.spans[i], -1)
		res, err := r.Run()
		if err != nil {
			tr.end(sp)
			out.failed = 1
			return out, fmt.Errorf("%s: %w", r.ID, err)
		}
		rendered := res.Render()
		tr.end(sp)
		fmt.Fprintf(h, "== %s\n%s\n", r.ID, rendered)
	}
	tr.end(root)
	out.digest = hex.EncodeToString(h.Sum(nil))
	if ts != nil {
		st := selfTimes(ts.lanes...)
		for i, r := range p.runners {
			if lt := st[p.spans[i]]; lt != nil {
				out.layers = append(out.layers, single("experiments."+r.ID+"_s", "s", "lower", lt.self.Seconds(), lt.calls))
			}
		}
	}
	return out, nil
}
