package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %q", r.ID)
		}
		ids[r.ID] = true
	}
	// Every evaluation artefact of the paper must be present.
	for _, id := range []string{"table1", "fig1", "fig2c", "fig3", "fig4", "fig5",
		"fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b", "fig12c"} {
		if !ids[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, err := ByID("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"Token-level (Dynamic)", "Head-level (Static)", "Block-level (Static)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("want 2 workloads × 3 placements = 6 rows, got %d", len(r.Rows))
	}
	byKey := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byKey[row.Workload.Name+"/"+row.Placement] = row
	}
	// Large workload without offloading OOMs (the paper's red "OOM" bar).
	if !byKey["w2/GPU only"].OOM {
		t.Error("w2 GPU-only should OOM")
	}
	if byKey["w1/GPU only"].OOM {
		t.Error("w1 GPU-only should fit")
	}
	// Moving KV to CPU slows the run down, strongly with 100 % placement
	// (paper: ≈3× at 50 %, ≈5× at 100 %).
	base := byKey["w1/GPU only"].TotalSeconds
	half := byKey["w1/50% CPU"].TotalSeconds
	full := byKey["w1/100% CPU"].TotalSeconds
	if !(base < half && half < full) {
		t.Fatalf("slowdown ordering broken: %v < %v < %v expected", base, half, full)
	}
	if ratio := half / base; ratio < 1.5 || ratio > 6 {
		t.Errorf("50%% CPU slowdown %.2f× outside the paper's ≈3× region", ratio)
	}
	if ratio := full / base; ratio < 2.5 || ratio > 10 {
		t.Errorf("100%% CPU slowdown %.2f× outside the paper's ≈5× region", ratio)
	}
	// Memory-access time dominates the offloaded runs.
	if byKey["w1/100% CPU"].MemAccessSecond < byKey["w1/100% CPU"].MHASeconds {
		t.Error("100% CPU run should be transfer-dominated")
	}
}

func TestFig2cShape(t *testing.T) {
	r, err := Fig2c()
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	// Cached: flat time, growing memory. Uncached: growing time, flat mem.
	if last.CachedSeconds > first.CachedSeconds*1.5 {
		t.Errorf("cached step time should stay near-flat: %v → %v", first.CachedSeconds, last.CachedSeconds)
	}
	if last.UncachedSeconds < first.UncachedSeconds*2 {
		t.Errorf("uncached step time should grow: %v → %v", first.UncachedSeconds, last.UncachedSeconds)
	}
	if last.CachedGPUBytes <= first.CachedGPUBytes {
		t.Error("cached memory should grow")
	}
	if last.UncachedGPU != first.UncachedGPU {
		t.Error("uncached memory should stay flat")
	}
	if !strings.Contains(r.Render(), "step") {
		t.Error("render missing header")
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("want 3 OPT models, got %d", len(r.Series))
	}
	for _, s := range r.Series {
		if s.MeanSparsity < 0.75 || s.MeanSparsity > 0.99 {
			t.Errorf("%s: sparsity %.3f outside the paper's 80–95%% band", s.Model, s.MeanSparsity)
		}
	}
	// Larger models sparser (paper: OPT-30B density ≈3× below OPT-6.7B).
	if !(r.Series[0].MeanSparsity < r.Series[1].MeanSparsity &&
		r.Series[1].MeanSparsity < r.Series[2].MeanSparsity) {
		t.Error("sparsity should grow with model size")
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	rho := map[string]float64{}
	for _, s := range r.Series {
		rho[s.Policy] = s.Spearman
	}
	if rho["dense"] != 1 {
		t.Errorf("dense ρ = %v, want 1", rho["dense"])
	}
	if !(rho["swa"] > rho["local"] && rho["swa"] > rho["strided"]) {
		t.Errorf("SWA ρ should dominate: %v", rho)
	}
	if rho["swa"] < 0.8 {
		t.Errorf("SWA ρ = %.3f, paper reports ≈1", rho["swa"])
	}
	// Score distributions are near power law: the top score dominates.
	for _, s := range r.Series {
		if len(s.TopScores) < 4 || s.TopScores[0] <= s.TopScores[3] {
			t.Errorf("%s: scores not heavy-tailed: %v", s.Policy, s.TopScores[:4])
		}
	}
}

func TestFig5Causal(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Maps) != 4 {
		t.Fatalf("want 4 panels, got %d", len(r.Maps))
	}
	for _, m := range r.Maps {
		for i := range m.Map {
			for j := i + 1; j < len(m.Map[i]); j++ {
				if m.Map[i][j] != 0 {
					t.Fatalf("%s: causality violated at (%d,%d)", m.Label, i, j)
				}
			}
		}
	}
	if !strings.Contains(r.Render(), "layer 16") {
		t.Error("render missing panel labels")
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	cfg := Fig8Config{
		Models:     []string{"opt-6.7b", "llama-33b"},
		Datasets:   []string{"wikitext-2", "piqa"},
		Sparsities: []float64{0, 0.4, 0.8},
		Steps:      192,
		Layers:     3,
	}
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At 0 % sparsity every method matches dense.
	for _, m := range []string{"local", "strided", "swa"} {
		c, ok := r.Cell("opt-6.7b", "wikitext-2", m, 0)
		if !ok || c.Metric != mustCell(t, r, "opt-6.7b", "wikitext-2", "dense", 0).Metric {
			t.Errorf("%s at 0%% sparsity should equal dense", m)
		}
	}
	// At 80 % sparsity: SWA stays near dense (<10 % ppl regression), local
	// collapses (the paper's central accuracy finding).
	dense := mustCell(t, r, "opt-6.7b", "wikitext-2", "dense", 0.8)
	swa := mustCell(t, r, "opt-6.7b", "wikitext-2", "swa", 0.8)
	local := mustCell(t, r, "opt-6.7b", "wikitext-2", "local", 0.8)
	if swa.Metric > dense.Metric*1.25 {
		t.Errorf("SWA ppl %.2f should stay near dense %.2f at 80%%", swa.Metric, dense.Metric)
	}
	if local.Metric < dense.Metric*2 {
		t.Errorf("local ppl %.2f should collapse vs dense %.2f", local.Metric, dense.Metric)
	}
	// ALISA tracks SWA closely (KV compression is accuracy-neutral).
	alisa := mustCell(t, r, "opt-6.7b", "wikitext-2", "alisa", 0.8)
	if alisa.Metric < swa.Metric || alisa.Metric > swa.Metric*1.1 {
		t.Errorf("ALISA ppl %.3f should track SWA %.3f", alisa.Metric, swa.Metric)
	}
	// QA accuracy: SWA above local at high sparsity.
	swaQA := mustCell(t, r, "llama-33b", "piqa", "swa", 0.8)
	localQA := mustCell(t, r, "llama-33b", "piqa", "local", 0.8)
	if swaQA.Metric <= localQA.Metric {
		t.Errorf("SWA acc %.3f should beat local %.3f", swaQA.Metric, localQA.Metric)
	}
	// Every alisa cell is exactly its swa cell less the INT8 penalty.
	for _, c := range r.Cells {
		if c.Method != "alisa" {
			continue
		}
		swa := mustCell(t, r, c.Model, c.Dataset, "swa", c.KVSparsity)
		if want := swa.Recall * (1 - int8RecallPenalty); c.Recall != want {
			t.Errorf("%s/%s at %v: alisa recall %v, want swa %v × (1 − %v) = %v",
				c.Model, c.Dataset, c.KVSparsity, c.Recall, swa.Recall, int8RecallPenalty, want)
		}
	}
}

func mustCell(t *testing.T, r *Fig8Result, m, d, method string, sp float64) Fig8Cell {
	t.Helper()
	c, ok := r.Cell(m, d, method, sp)
	if !ok {
		t.Fatalf("missing cell %s/%s/%s/%v", m, d, method, sp)
	}
	return c
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	cfg := Fig9Config{
		Models:     []string{"opt-6.7b"},
		Batches:    []int{4, 64},
		Systems:    []string{"deepspeed-zero", "hf-accelerate", "flexgen", "vllm", "alisa"},
		KVSparsity: 0.8,
		KVBits:     8,
	}
	r, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ALISA wins at the large batch over FlexGen. The paper reports up to
	// 3.0×; our FlexGen baseline lacks its compression and CPU-compute
	// options, so the measured ratio overshoots (recorded in
	// EXPERIMENTS.md) while the winner and growth direction hold.
	if s := r.Speedup("opt-6.7b", 64, "flexgen"); s < 1.4 || s > 20 {
		t.Errorf("ALISA/FlexGen speedup %.2f× outside band", s)
	}
	if s := r.Speedup("opt-6.7b", 64, "vllm"); s <= 1 {
		t.Errorf("ALISA should beat vLLM at b=64, got %.2f×", s)
	}
	// DeepSpeed OOMs at the large batch (paper Fig. 9 "OOM" markers).
	if c, ok := r.Cell("opt-6.7b", 64, "deepspeed-zero"); !ok || !c.OOM {
		t.Error("DeepSpeed should OOM at b=64")
	}
	// Speedup grows with batch (paper: "As the batch size grows, the
	// speedup of ALISA over FlexGen and other methods increases").
	if r.Speedup("opt-6.7b", 64, "flexgen") <= r.Speedup("opt-6.7b", 4, "flexgen") {
		t.Error("speedup should grow with batch size")
	}
	if !strings.Contains(r.Render(), "OOM") {
		t.Error("render should mark OOM cells")
	}
}

func TestFig10ShapeMatchesPaper(t *testing.T) {
	r, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Within each model, attained attention sparsity rises with KV
	// sparsity (Fig. 10's first observation).
	byModel := map[string][]Fig10Point{}
	for _, p := range r.Points {
		byModel[p.Model] = append(byModel[p.Model], p)
	}
	for model, pts := range byModel {
		for i := 1; i < len(pts); i++ {
			if pts[i].AttentionSparsity+0.005 < pts[i-1].AttentionSparsity {
				t.Errorf("%s: attention sparsity fell from %.3f to %.3f",
					model, pts[i-1].AttentionSparsity, pts[i].AttentionSparsity)
			}
		}
	}
	// Larger model needs higher KV sparsity to approach its dense
	// sparsity: at 80 % KV sparsity the 30B gap to dense exceeds the
	// 6.7B gap relative to their levels... the robust check is that the
	// 30B dense ceiling is higher than 6.7B's.
	if byModel["opt-30b"][0].DenseSparsity <= byModel["opt-6.7b"][0].DenseSparsity {
		t.Error("OPT-30B dense sparsity should exceed OPT-6.7B")
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	r, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[float64]Fig11Row{}
	for _, row := range r.Rows {
		if rows[row.Model] == nil {
			rows[row.Model] = map[float64]Fig11Row{}
		}
		rows[row.Model][row.KVSparsity] = row
	}
	for model, byS := range rows {
		// Higher KV sparsity always reduces module time.
		if !(byS[0].Breakdown.Total() > byS[0.4].Breakdown.Total() &&
			byS[0.4].Breakdown.Total() > byS[0.8].Breakdown.Total()) {
			t.Errorf("%s: time should fall with sparsity", model)
		}
		// Effective QKᵀ FLOPS drop at high sparsity (under-utilisation).
		if byS[0.8].Breakdown.QKT.EffFLOPS() >= byS[0].Breakdown.QKT.EffFLOPS() {
			t.Errorf("%s: QKᵀ FLOPS should drop at 80%% sparsity", model)
		}
	}
	// Larger model pays a higher SWA overhead (local sum + gather).
	small := rows["opt-6.7b"][0.4].Breakdown
	large := rows["opt-30b"][0.4].Breakdown
	if large.LocalSum.Seconds+large.Gather.Seconds <= small.LocalSum.Seconds+small.Gather.Seconds {
		t.Error("OPT-30B should pay more SWA overhead than OPT-6.7B")
	}
}

func TestFig12aShapeMatchesPaper(t *testing.T) {
	r, err := Fig12a()
	if err != nil {
		t.Fatal(err)
	}
	var alisaRows []Fig12aRow
	var flexgen Fig12aRow
	for _, row := range r.Rows {
		if row.System == "alisa" {
			alisaRows = append(alisaRows, row)
		} else {
			flexgen = row
		}
	}
	if len(alisaRows) != 3 {
		t.Fatalf("want 3 ALISA sparsities, got %d", len(alisaRows))
	}
	for _, row := range alisaRows {
		// ALISA beats FlexGen at every sparsity (Fig. 12(a) observation 1).
		if row.Total >= flexgen.Total {
			t.Errorf("ALISA %.0f%% total %.2fs should beat FlexGen %.2fs",
				row.KVSparsity*100, row.Total, flexgen.Total)
		}
		// All three phases appear under this memory-pressured workload.
		if len(row.Phases) != 3 {
			t.Errorf("ALISA %.0f%%: %d phases, want 3", row.KVSparsity*100, len(row.Phases))
		}
	}
	// Higher sparsity delays Phase III (observation 3: "higher KV sparsity
	// enters Phase III later").
	endOfPhase2 := func(row Fig12aRow) int {
		for _, ph := range row.Phases {
			if ph.Phase == 2 {
				return ph.EndStep
			}
		}
		return 0
	}
	if !(endOfPhase2(alisaRows[0]) <= endOfPhase2(alisaRows[1]) &&
		endOfPhase2(alisaRows[1]) <= endOfPhase2(alisaRows[2])) {
		t.Errorf("Phase III should start later with higher sparsity: %d, %d, %d",
			endOfPhase2(alisaRows[0]), endOfPhase2(alisaRows[1]), endOfPhase2(alisaRows[2]))
	}
	// Higher sparsity means higher speedup over FlexGen (observation 1).
	if !(alisaRows[2].Total < alisaRows[1].Total && alisaRows[1].Total < alisaRows[0].Total) {
		t.Error("total time should fall with sparsity")
	}
	if out := r.Render(); !strings.Contains(out, "phase") || !strings.Contains(out, "flexgen") {
		t.Error("render incomplete")
	}
}

func TestFig12bShapeMatchesPaper(t *testing.T) {
	r, err := Fig12b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Paper: recomputation reduces total time by 1.2–1.3×. Accept a
		// generous band around it.
		if row.Speedup < 1.02 {
			t.Errorf("recompute speedup %.3f at %.0f%% sparsity should exceed 1",
				row.Speedup, row.KVSparsity*100)
		}
		if row.Speedup > 2.5 {
			t.Errorf("recompute speedup %.2f implausibly large", row.Speedup)
		}
	}
	if !strings.Contains(r.Render(), "speedup") {
		t.Error("render incomplete")
	}
}

func TestFig12cShapeMatchesPaper(t *testing.T) {
	r, err := Fig12c()
	if err != nil {
		t.Fatal(err)
	}
	get := func(sp float64, variant string) float64 {
		for _, c := range r.Rows {
			if c.KVSparsity == sp && c.Variant == variant {
				return c.Throughput
			}
		}
		t.Fatalf("missing %v/%s", sp, variant)
		return 0
	}
	for _, sp := range []float64{0.4, 0.6, 0.8} {
		fg, swa, ds, int8 := get(sp, "flexgen"), get(sp, "+swa"), get(sp, "+ds"), get(sp, "+int8")
		// Techniques accumulate: each addition helps (Fig. 12(c): the
		// techniques "almost contribute equally").
		if !(swa > fg && ds > swa && int8 > ds) {
			t.Errorf("sparsity %.0f%%: ablation not monotone: %.1f, %.1f, %.1f, %.1f",
				sp*100, fg, swa, ds, int8)
		}
	}
	// The gain of the full stack grows with sparsity.
	if get(0.8, "+int8")/get(0.8, "flexgen") <= get(0.4, "+int8")/get(0.4, "flexgen") {
		t.Error("ablation gain should grow with sparsity")
	}
	if !strings.Contains(r.Render(), "+int8") {
		t.Error("render incomplete")
	}
}
