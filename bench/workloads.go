package main

// workloads lists the benchmark's workloads in report order; BENCHMARK.json
// and README.md give the reason each exists.
func workloads() []workloadDef {
	return []workloadDef{
		{name: "paper-eval", setup: setupPaperEval},
		{name: "serve-scale", setup: setupServeScale},
		{name: "prefix-fleet", setup: setupPrefixFleet},
		{name: "gateway-http", setup: setupGatewayHTTP},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}
