package attention

import (
	"fmt"
	"sort"
	"strings"
)

// factories maps policy names to constructors taking the caching ratio
// r = 1 − KV sparsity and the model's layer count. Policies are stateful
// per layer, so every call returns an independent instance. It is a fixed
// table, never written after package initialization, so lookups need no
// lock; the policy types are unexported, so it is the only way to build
// one.
var factories = map[string]func(ratio float64, layers int) Policy{
	"dense":   func(_ float64, l int) Policy { return &dense{layers: newLayers[[]int](l)} },
	"local":   func(r float64, l int) Policy { return &local{ratio: r, layers: newLayers[[]int](l)} },
	"strided": func(r float64, l int) Policy { return &strided{ratio: r, layers: newLayers[[]int](l)} },
	"swa":     func(r float64, l int) Policy { return &swa{ratio: r, layers: newLayers[swaLayer](l)} },
	"h2o":     func(r float64, l int) Policy { return &h2o{ratio: r, layers: newLayers[h2oLayer](l)} },
}

// newLayers returns n independently allocated zero layer states.
func newLayers[T any](n int) []*T {
	layers := make([]*T, n)
	for i := range layers {
		layers[i] = new(T)
	}
	return layers
}

// ByName constructs a fresh policy from its name at the given caching
// ratio for a model with the given layer count.
func ByName(name string, ratio float64, layers int) (Policy, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("attention: unknown policy %q (known: %s)", name, strings.Join(Registered(), ", "))
	}
	return f(ratio, layers), nil
}

// MustByName is ByName for static names — the experiment tables whose
// policy names are compile-time constants. It panics on an unknown name,
// which for a static name is a programming error, not an input error.
func MustByName(name string, ratio float64, layers int) Policy {
	p, err := ByName(name, ratio, layers)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the paper's comparison set in presentation order; the
// pinned experiment outputs iterate it.
func Names() []string {
	return []string{"dense", "local", "strided", "h2o", "swa"}
}

// Registered lists every resolvable policy name in sorted order.
func Registered() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
