// Package alisa is a from-scratch reproduction of "ALISA: Accelerating
// Large Language Model Inference via Sparsity-Aware KV Caching" (ISCA
// 2024): the Sparse Window Attention algorithm, the three-phase
// token-level dynamic scheduler with its offline optimizer, INT8 KV
// compression, the baseline systems the paper compares against (FlexGen,
// vLLM, DeepSpeed-ZeRO, HuggingFace Accelerate), and a simulated single
// GPU–CPU system standing in for the paper's V100/H100 testbeds.
//
// The public surface centres on the compiled Engine:
//
//   - New compiles one configuration — model × hardware × scheduler ×
//     sparsity × quantization, expressed as functional options — resolving
//     and validating every name exactly once.
//   - Engine.Simulate runs one end-to-end lockstep inference simulation
//     and reports throughput, the execution-time breakdown, and the
//     memory trajectory — the unit of the paper's system evaluation.
//   - Engine.Serve runs a continuous-batching serving simulation over an
//     arrival trace and reports TTFT/TPOT/E2E latency, throughput, and
//     goodput — the multi-request counterpart of Simulate. Engine.ServeMany
//     runs the cells of a load sweep concurrently on a bounded worker
//     pool with per-cell results bit-identical to serial Serve calls;
//     the serving loop itself is allocation-free in steady state.
//   - Engine.EvaluatePolicy runs a sparse-attention policy against a
//     calibrated synthetic attention process and reports attention-mass
//     recall and Spearman correlation — the unit of the paper's accuracy
//     evaluation.
//   - Experiments/RunExperiment regenerate every table and figure of the
//     paper's evaluation section.
//
// All three run methods take a context.Context and stream progress to an
// optional Observer (WithObserver), a struct of one optional callback
// per event kind. The scheduler, attention-policy, model, and
// hardware-profile names resolve through fixed tables that hold the
// paper's evaluation sets; see Models, Schedulers, and ClusterRouters.
//
// See DESIGN.md for the system inventory, the hardware-gate
// substitutions, and the public API contract (§7), and EXPERIMENTS.md for
// paper-vs-measured results.
package alisa

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sched"
)

// Result is the outcome of a simulation; see core.Result for field
// documentation.
type Result = core.Result

// PolicyReport summarises an accuracy-side evaluation of a policy.
type PolicyReport struct {
	Policy     string
	KVSparsity float64
	// MeanRecall is the average dense-attention mass the retained token
	// sets captured; Spearman is the rank correlation of the policy's
	// score distribution against dense attention (paper Fig. 4's ρ).
	//
	// For the dense policy Spearman is identically 1, by definition
	// rather than by measurement: dense attention is the reference
	// distribution, and the rank correlation of a distribution with
	// itself is exactly 1 (identical ranks), so no numerical estimate is
	// run for it.
	MeanRecall float64
	Spearman   float64
}

// Experiment identifies one reproducible table or figure.
type Experiment = experiments.Runner

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by id ("fig9", "table1", ...) and
// returns its rendered report.
func RunExperiment(id string) (string, error) {
	r, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	res, err := r.Run()
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// Models lists the model catalog names New accepts.
func Models() []string { return model.Names() }

// Schedulers lists the paper's scheduler evaluation set in evaluation
// order. WithScheduler also accepts gpu-only and no-cache, and the
// aliases deepspeed and accelerate.
func Schedulers() []string { return sched.Names() }
