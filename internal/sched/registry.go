package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Factory constructs a fresh scheduler instance. Instances are never
// shared between concurrent runs, so factories must not share mutable
// state between the schedulers they return. An instance is reusable:
// Init starts a sequence on a new or used instance (see Scheduler.Init),
// which is how the serving loop recycles one instance per pooled
// sequence slot instead of calling the factory at every admission.
type Factory func() Scheduler

// factories maps canonical (and alias) names to factories. It is a fixed
// table, never written after package initialization, so lookups need no
// lock.
// The static-placement members set each token's GPU share: 1 keeps all
// KV on the GPU, 0 offloads it all, and flexgen solves its share at Init.
var factories = map[string]Factory{
	"alisa":          func() Scheduler { return autoAlisa() },
	"flexgen":        func() Scheduler { return &static{name: "flexgen", solveHeads: true} },
	"vllm":           func() Scheduler { return &vllm{} },
	"deepspeed-zero": deepSpeedZero,
	"deepspeed":      deepSpeedZero,
	"hf-accelerate":  hfAccelerate,
	"accelerate":     hfAccelerate,
	"gpu-only":       func() Scheduler { return &static{name: "gpu-only", gpuFrac: 1} },
	"no-cache":       func() Scheduler { return &noCache{} },
}

func deepSpeedZero() Scheduler {
	return &static{name: "deepspeed-zero", gpuFrac: 1, weightsOnCPU: true}
}

func hfAccelerate() Scheduler { return &static{name: "hf-accelerate"} }

// ByName constructs a fresh scheduler from its name.
func ByName(name string) (Scheduler, error) {
	f, err := FactoryByName(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// MustByName is ByName for static names — the experiment tables and
// examples whose scheduler names are compile-time constants. It panics
// on an unknown name, which for a static name is a programming error,
// not an input error.
func MustByName(name string) Scheduler {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// FactoryByName resolves the factory once, so callers that construct
// many instances (compiled engines, per-admission schedulers) skip the
// lookup on the hot path.
func FactoryByName(name string) (Factory, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (known: %s)", name, strings.Join(Registered(), ", "))
	}
	return f, nil
}

// Names lists the paper's evaluation set in evaluation order; the
// experiment suite iterates it and its outputs are pinned.
func Names() []string {
	return []string{"deepspeed-zero", "hf-accelerate", "flexgen", "vllm", "alisa"}
}

// Registered lists every resolvable name, aliases included, in sorted
// order.
func Registered() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
