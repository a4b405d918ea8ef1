package attention

import (
	"fmt"
	"sort"
	"strings"
)

// Factory constructs a fresh policy instance for a model with the given
// layer count at the given caching ratio r = 1 − KV sparsity. Policies
// are stateful per layer, so factories must return independent instances
// on every call.
type Factory func(ratio float64, layers int) (Policy, error)

// factories maps policy names to factories. It is a fixed table, never
// written after package initialization, so lookups need no lock.
var factories = map[string]Factory{
	"dense":   func(float64, int) (Policy, error) { return NewDense(), nil },
	"local":   func(r float64, _ int) (Policy, error) { return NewLocal(r), nil },
	"strided": func(r float64, _ int) (Policy, error) { return NewStrided(r), nil },
	"swa":     func(r float64, l int) (Policy, error) { return NewSWA(r, l), nil },
	"h2o":     func(r float64, l int) (Policy, error) { return NewH2O(r, l), nil },
}

// ByName constructs a fresh policy from its name at the given caching
// ratio for a model with the given layer count.
func ByName(name string, ratio float64, layers int) (Policy, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("attention: unknown policy %q (known: %s)", name, strings.Join(Registered(), ", "))
	}
	return f(ratio, layers)
}

// MustByName is ByName for static names — the experiment tables whose
// policy names are compile-time constants. It panics on an unknown name
// or a factory error, either of which is a programming error for a
// static configuration, not an input error.
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
