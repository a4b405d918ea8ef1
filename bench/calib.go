package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// CPU time leaves out the time other tenants of a shared machine take a
// core away, but not how much they slow the core down while the program
// has it: they contend for its caches and execution units, and over
// minutes the program's CPU time per item drifts by 10–20% with them.
// Small kernels that stay in the core's caches drift the same way, so
// every timed section is bracketed by a speed reading taken with them,
// and its CPU time is divided by the mean of the readings around it. The
// kernels live in the benchmark, so no change to the program moves them;
// their memory is mapped outside the Go heap and they allocate nothing,
// so they show in neither heap_mb nor the collector's pacing.

const (
	aluIters = 1_000_000 // one arithmetic kernel run, about 2.5 ms
	sortLen  = 20_000    // floats one sort kernel run fills and sorts, about 1.9 ms
	heapCap  = 512       // entries the event-queue kernel keeps
	heapOps  = 30_000    // pushes one event-queue kernel run makes
	// kernelTries is how many runs of each kernel one reading takes; the
	// fastest counts, which skips a run whose caches were cold.
	kernelTries = 3
)

// kernelNominal is each kernel's thread CPU time at the reference speed:
// the arithmetic, sort and event-queue kernels' medians on the 2-vCPU
// x86-64 VM the README's baseline was measured on.
var kernelNominal = [3]time.Duration{
	2450 * time.Microsecond, 1850 * time.Microsecond, 1600 * time.Microsecond,
}

// kernelData holds the sort and event-queue kernels' buffers.
type kernelData struct {
	buf, queue []float64
}

var kernelBuffers = sync.OnceValue(func() *kernelData {
	n := sortLen + heapCap + 1
	var mem []float64
	if b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		mem = unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	} else {
		mem = make([]float64, n) // on the heap: heap_mb reads 0.16 MB high
	}
	return &kernelData{buf: mem[:sortLen], queue: mem[sortLen:sortLen]}
})

// kernelSink keeps the kernels' results observable; only the measuring
// goroutine, in coreSlowdown, writes it.
var kernelSink uint64

func (k *kernelData) alu() {
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < aluIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*1.0000001 + float64(x&1023)*1e-9
	}
	kernelSink += x + uint64(f)
}

// sort fills the buffer with pseudo-random floats and sorts it.
func (k *kernelData) sort() {
	x := uint64(1)
	for i := range k.buf {
		x = x*6364136223846793005 + 1442695040888963407
		k.buf[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(k.buf)
	kernelSink += uint64(k.buf[0] * 1e9)
}

// eventQueue pushes pseudo-random times into a binary min-heap, popping
// the earliest whenever it holds more than heapCap.
func (k *kernelData) eventQueue() {
	q := k.queue[:0]
	x := 0.5
	for i := 0; i < heapOps; i++ {
		x = x*3.7*(1-x) + 1e-9
		q = append(q, x+float64(i))
		for c := len(q) - 1; c > 0; {
			p := (c - 1) / 2
			if q[p] <= q[c] {
				break
			}
			q[p], q[c] = q[c], q[p]
			c = p
		}
		if len(q) > heapCap {
			last := len(q) - 1
			q[0] = q[last]
			q = q[:last]
			for p := 0; ; {
				c := 2*p + 1
				if c >= len(q) {
					break
				}
				if c+1 < len(q) && q[c+1] < q[c] {
					c++
				}
				if q[p] <= q[c] {
					break
				}
				q[p], q[c] = q[c], q[p]
				p = c
			}
		}
	}
	kernelSink += uint64(len(q))
}

// coreSlowdown reads the core's current speed: the geometric mean, over
// the kernels, of each one's fastest thread CPU time over its nominal
// one — 1 at the reference speed, above 1 when the core runs slower.
func coreSlowdown() float64 {
	k := kernelBuffers()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	logSum := 0.0
	for i, kernel := range [len(kernelNominal)]func(){k.alu, k.sort, k.eventQueue} {
		best := time.Duration(math.MaxInt64)
		for t := 0; t < kernelTries; t++ {
			start := cpuClock(clockThreadCPU)
			kernel()
			best = min(best, cpuClock(clockThreadCPU)-start)
		}
		logSum += math.Log(float64(max(best, time.Microsecond)) / float64(kernelNominal[i]))
	}
	return math.Exp(logSum / float64(len(kernelNominal)))
}
