package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// definition is BENCHMARK.json: the workloads and the metrics every run
// reports, with each end-to-end metric's regression bound — the share
// of the old median by which it may get worse.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (definition, error) {
	var def definition
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

func loadDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictChanged    = "CHANGED" // an exact (simulated) metric moved
	verdictMissing    = "MISSING"
	verdictInfo       = "info" // no bound: reported, not judged
)

// row is one compared metric.
type row struct {
	workload, metric, unit string
	old, new               summary
	change                 float64 // (new − old) / old
	bound                  float64
	verdict                string
}

// failing reports whether a verdict makes -compare exit non-zero.
func failing(verdict string) bool {
	return verdict == verdictRegression || verdict == verdictChanged || verdict == verdictMissing
}

// compareDocs compares every end-to-end metric of every workload the two
// documents share. Metrics bounded in the definition are judged against
// their bound; a side whose interquartile range exceeds the bound leaves
// the comparison unresolved unless every new sample beats every old one.
// Exact simulated metrics must match bit for bit when the seeds match;
// fail_ratio may not rise. Other metrics are reported for information.
func compareDocs(def definition, oldDoc, newDoc document) []row {
	bounds := make(map[string]metricDef, len(def.EndToEnd))
	for _, d := range def.EndToEnd {
		bounds[d.Name] = d
	}
	var rows []row
	for _, nr := range newDoc.Results {
		var or *result
		for i := range oldDoc.Results {
			if oldDoc.Results[i].Workload == nr.Workload {
				or = &oldDoc.Results[i]
			}
		}
		if or == nil {
			continue
		}
		for _, om := range or.EndToEnd {
			r := row{workload: nr.Workload, metric: om.Name, unit: om.Unit, old: om.summary}
			nm, ok := nr.find(om.Name)
			if !ok {
				r.verdict = verdictMissing
				rows = append(rows, r)
				continue
			}
			r.new = nm.summary
			if om.Median != 0 {
				r.change = (nm.Median - om.Median) / om.Median
			}
			// worse is the change in the direction the metric gets worse.
			worse := r.change
			if om.Better == "higher" {
				worse = -worse
			}
			d, bounded := bounds[om.Name]
			switch {
			case om.Name == "fail_ratio":
				r.verdict = verdictUnchanged
				if nm.Median > om.Median {
					r.verdict = verdictRegression
				}
			case om.Exact && or.Seed == nr.Seed:
				r.verdict = verdictUnchanged
				if nm.Median != om.Median {
					r.verdict = verdictChanged
				}
			case !bounded:
				r.verdict = verdictInfo
			default:
				r.bound = d.Bound
				switch {
				case om.iqrShare() > d.Bound || nm.iqrShare() > d.Bound:
					r.verdict = verdictUnresolved
					if allBetter(om, nm) {
						r.verdict = verdictImproved
					}
				case worse > d.Bound:
					r.verdict = verdictRegression
				case -worse > d.Bound:
					r.verdict = verdictImproved
				default:
					r.verdict = verdictUnchanged
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// allBetter reports whether every new sample reads better than every old
// one.
func allBetter(om, nm metric) bool {
	if len(om.Samples) == 0 || len(nm.Samples) == 0 {
		return false
	}
	for _, o := range om.Samples {
		for _, n := range nm.Samples {
			if (om.Better == "higher" && n <= o) || (om.Better != "higher" && n >= o) {
				return false
			}
		}
	}
	return true
}

// runCompare prints the comparison of two result documents and returns
// the exit code: 1 on any regression, changed exact metric or missing
// metric, 2 when the inputs cannot be read.
func runCompare(w io.Writer, defPath, oldPath, newPath string) int {
	def, err := loadDefinition(defPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rows := compareDocs(def, oldDoc, newDoc)
	fmt.Fprintf(w, "%-13s %-20s %-6s %30s %30s %8s %6s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	code := 0
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Fprintf(w, "%-13s %-20s %-6s %30s %30s %+7.1f%% %6s  %s\n", r.workload, r.metric, r.unit,
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.old.Median, r.old.Q1, r.old.Q3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.new.Median, r.new.Q1, r.new.Q3),
			r.change*100, bound, r.verdict)
		if failing(r.verdict) {
			code = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the documents share no workload")
		return 2
	}
	return code
}
