// Package a is the determinism fixture: wall clocks, global RNG, and
// map-order escapes, next to their legal counterparts.
package a

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func WallClock() float64 {
	t := time.Now()        // want `time\.Now reads the wall clock`
	_ = time.Since(t)      // want `time\.Since reads the wall clock`
	_ = t.Sub(time.Time{}) // ok: method on an explicit value
	return 0
}

func GlobalRand() int {
	r := rand.New(rand.NewSource(1))   // ok: explicitly seeded stream
	_ = r.Intn(10)                     // ok: method on the stream
	_ = rand.NewZipf(r, 1.1, 1, 10)    // ok: distribution over the stream
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand state \(rand\.Shuffle\)`
	return rand.Intn(10)               // want `global math/rand state \(rand\.Intn\)`
}

func CollectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order reaches an append`
		out = append(out, k)
	}
	return out
}

func CollectSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // ok: sorted below, order erased
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func Count(m map[string]int) int {
	n := 0
	for range m { // ok: commutative accumulation only
		n++
	}
	return n
}

func SumFloats(m map[string]float64) float64 {
	var t float64
	for _, v := range m { // want `map iteration order reaches a float accumulation`
		t += v
	}
	return t
}

func PerKeyFloats(dst, src map[string]float64) {
	for k, v := range src { // ok: each key written once, order-free
		dst[k] += v
	}
}

func SumInts(m map[string]int) int {
	t := 0
	for _, v := range m { // ok: integer addition is associative
		t += v
	}
	return t
}

func FirstMatch(m map[string]int) string {
	for k, v := range m { // want `map iteration order reaches a return`
		if v > 0 {
			return k
		}
	}
	return ""
}

func Emit(m map[string]int) {
	for k := range m { // want `map iteration order reaches an emitted output`
		fmt.Println(k)
	}
}

func Send(m map[string]int, ch chan string) {
	for k := range m { // want `map iteration order reaches a channel send`
		ch <- k
	}
}

func OverSlice(xs []int, ch chan int) {
	for _, x := range xs { // ok: slices iterate in order
		ch <- x
	}
}
