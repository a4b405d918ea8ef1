// Package memsim simulates the single GPU–CPU system the paper evaluates
// on: GPU high-bandwidth memory, CPU DRAM, and the PCIe link between them,
// each with a capacity or bandwidth. A simulated monotone clock advances as
// compute and transfers are charged, so schedulers can be compared on
// end-to-end execution time exactly as the paper compares FlexGen, vLLM,
// and ALISA — by counting the bytes they move and the FLOPs they spend.
//
// The System is also the run's one time ledger. Every charge names a
// trace.Category and advances the clock and that category together;
// transfers book trace.CatTransfer. Only AdvanceTo, the idle jump to a
// future arrival, moves the clock without a category, so the ledger sums
// to the clock less the idle time, up to float rounding.
//
// The simulator is deliberately analytic, not cycle-accurate: the paper's
// effects (I/O bottleneck at 20 GB/s PCIe, OOM without offload, the
// caching-vs-recomputation crossover) are first-order consequences of
// capacities and bandwidths, which is exactly what is modelled.
package memsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// GiB is 2³⁰ bytes.
const GiB = int64(1) << 30

// Profile describes the simulated hardware. Bandwidths are bytes/second,
// compute is FLOP/second.
type Profile struct {
	Name string

	GPUMemBytes int64 // HBM capacity
	CPUMemBytes int64 // DRAM capacity

	HBMBandwidth  float64 // GPU memory bandwidth
	PCIeBandwidth float64 // CPU↔GPU link (the paper's B = 20 GB/s)
	CPUBandwidth  float64 // DRAM bandwidth for CPU-side work

	PeakFLOPS float64 // GPU FP16 peak
	// GEMMUtil is the fraction of peak a well-shaped GEMM achieves;
	// SaturationElems is the output-matrix size (elements) below which
	// utilisation degrades linearly — the Fig. 11 "FLOPS drop" effect for
	// small gathered tensors.
	GEMMUtil        float64
	SaturationElems float64

	// ReserveBytes is GPU memory unavailable to KV placement: CUDA
	// context, framework workspace, and allocator fragmentation. Runtimes
	// reserve roughly a fixed context plus a share of the card.
	ReserveBytes int64
}

// V100_16G models an NVIDIA Tesla V100 SXM2 16 GB (paper: 7B models).
func V100_16G() Profile {
	return Profile{
		Name:            "V100-16GB",
		GPUMemBytes:     16 * GiB,
		CPUMemBytes:     128 * GiB,
		HBMBandwidth:    900e9,
		PCIeBandwidth:   20e9, // paper §VI-A
		CPUBandwidth:    100e9,
		PeakFLOPS:       112e12,
		GEMMUtil:        0.55,
		SaturationElems: 256 << 10,
		ReserveBytes:    GiB + 16*GiB/20,
	}
}

// V100_32G models an NVIDIA Tesla V100 32 GB (paper: 13B models, Fig. 1).
func V100_32G() Profile {
	p := V100_16G()
	p.Name = "V100-32GB"
	p.GPUMemBytes = 32 * GiB
	p.ReserveBytes = GiB + 32*GiB/20
	return p
}

// H100_80G models an NVIDIA H100 80 GB (paper: 30B models).
func H100_80G() Profile {
	return Profile{
		Name:            "H100-80GB",
		GPUMemBytes:     80 * GiB,
		CPUMemBytes:     128 * GiB,
		HBMBandwidth:    3350e9,
		PCIeBandwidth:   20e9,
		CPUBandwidth:    100e9,
		PeakFLOPS:       990e12,
		GEMMUtil:        0.5,
		SaturationElems: 1 << 20,
		ReserveBytes:    GiB + 80*GiB/20,
	}
}

// profiles maps lower-cased names to the paper's testbeds. It is a
// fixed table, never written after package initialization, so lookups
// need no lock.
var profiles = map[string]Profile{
	"v100-16gb": V100_16G(),
	"v100-32gb": V100_32G(),
	"h100-80gb": H100_80G(),
}

// ProfileByName looks up a profile (case-insensitive).
func ProfileByName(name string) (Profile, error) {
	p, ok := profiles[strings.ToLower(name)]
	if !ok {
		return Profile{}, fmt.Errorf("memsim: unknown profile %q (known: %s)", name, strings.Join(ProfileNames(), ", "))
	}
	return p, nil
}

// ProfileNames returns every profile's canonical name (V100-16GB, ...)
// in sorted order.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for _, p := range profiles {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// OOMError reports a GPU or CPU memory exhaustion — the paper's "OOM"
// bars in Fig. 1 and Fig. 9.
type OOMError struct {
	Device    string
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("memsim: %s out of memory: requested %d, used %d of %d",
		e.Device, e.Requested, e.Used, e.Capacity)
}

// System is a running simulation instance: allocation state for both
// memories, the transfer link, the simulated clock, and the ledger of
// charged time by category.
type System struct {
	Prof Profile

	clock  float64 // seconds
	ledger trace.Breakdown

	gpuUsed, cpuUsed int64
	gpuPeak, cpuPeak int64

	toCPUBytes, toGPUBytes int64
}

// NewSystem returns a fresh simulation over the profile.
func NewSystem(p Profile) *System {
	return &System{Prof: p}
}

// Clone returns an independent copy of the system — clock, ledger, usage,
// peaks, and transfer counters — advancing either side leaves the other
// untouched. System is plain value state, so a fork is one copy; the
// serving loop's Fork relies on that.
func (s *System) Clone() *System {
	c := *s
	return &c
}

// Clock returns the simulated time in seconds.
func (s *System) Clock() float64 { return s.clock }

// Charge books dt seconds (dt ≥ 0) to cat and advances the clock by dt.
func (s *System) Charge(cat trace.Category, dt float64) {
	s.ledger.Add(cat, dt)
	s.clock += dt
}

// ChargeDecode books a decode iteration's compute: mha to trace.CatMHA and
// ffn to trace.CatFFN, with the clock advanced by mha + ffn in one
// addition. Two Charges would round the clock differently.
func (s *System) ChargeDecode(mha, ffn float64) {
	s.ledger.Add(trace.CatMHA, mha)
	s.ledger.Add(trace.CatFFN, ffn)
	s.clock += mha + ffn
}

// Ledger returns the seconds charged so far, by category.
func (s *System) Ledger() trace.Breakdown { return s.ledger }

// SeedLedger starts the ledger from b, so that this system's charges
// continue the ledger an earlier system kept.
func (s *System) SeedLedger(b trace.Breakdown) { s.ledger = b }

// AdvanceTo moves the clock to the absolute time t (t ≥ Clock()), charging
// the jump to no category: it is idle time. Setting the clock lands
// exactly on t, where adding t − Clock() can round one ulp short of it.
func (s *System) AdvanceTo(t float64) {
	if t < s.clock {
		panic(fmt.Sprintf("memsim: clock moved backwards from %v to %v", s.clock, t))
	}
	s.clock = t
}

// AllocGPU reserves bytes of GPU memory, failing with *OOMError when the
// capacity would be exceeded.
func (s *System) AllocGPU(bytes int64) error {
	if bytes < 0 {
		panic("memsim: negative allocation")
	}
	if s.gpuUsed+bytes > s.Prof.GPUMemBytes {
		return &OOMError{Device: "GPU", Requested: bytes, Used: s.gpuUsed, Capacity: s.Prof.GPUMemBytes}
	}
	s.gpuUsed += bytes
	if s.gpuUsed > s.gpuPeak {
		s.gpuPeak = s.gpuUsed
	}
	return nil
}

// FreeGPU releases bytes of GPU memory.
func (s *System) FreeGPU(bytes int64) {
	if bytes < 0 || bytes > s.gpuUsed {
		panic(fmt.Sprintf("memsim: bad GPU free %d (used %d)", bytes, s.gpuUsed))
	}
	s.gpuUsed -= bytes
}

// AllocCPU reserves bytes of CPU memory.
func (s *System) AllocCPU(bytes int64) error {
	if bytes < 0 {
		panic("memsim: negative allocation")
	}
	if s.cpuUsed+bytes > s.Prof.CPUMemBytes {
		return &OOMError{Device: "CPU", Requested: bytes, Used: s.cpuUsed, Capacity: s.Prof.CPUMemBytes}
	}
	s.cpuUsed += bytes
	if s.cpuUsed > s.cpuPeak {
		s.cpuPeak = s.cpuUsed
	}
	return nil
}

// FreeCPU releases bytes of CPU memory.
func (s *System) FreeCPU(bytes int64) {
	if bytes < 0 || bytes > s.cpuUsed {
		panic(fmt.Sprintf("memsim: bad CPU free %d (used %d)", bytes, s.cpuUsed))
	}
	s.cpuUsed -= bytes
}

// TransferToCPU charges a GPU→CPU transfer of the given bytes over PCIe
// to trace.CatTransfer. Memory accounting is the caller's responsibility
// (schedulers move logical tokens; the simulator moves bytes).
func (s *System) TransferToCPU(bytes int64) {
	s.transfer(bytes, &s.toCPUBytes)
}

// TransferToGPU charges a CPU→GPU transfer of the given bytes over PCIe.
func (s *System) TransferToGPU(bytes int64) {
	s.transfer(bytes, &s.toGPUBytes)
}

func (s *System) transfer(bytes int64, counter *int64) {
	if bytes < 0 {
		panic("memsim: negative transfer")
	}
	s.Charge(trace.CatTransfer, float64(bytes)/s.Prof.PCIeBandwidth)
	*counter += bytes
}

// Usage reports current GPU and CPU memory consumption in bytes.
func (s *System) Usage() (gpu, cpu int64) { return s.gpuUsed, s.cpuUsed }

// Peak reports the high-water marks of GPU and CPU memory.
func (s *System) Peak() (gpu, cpu int64) { return s.gpuPeak, s.cpuPeak }

// TransferStats reports cumulative bytes moved in each direction; the
// link time is the ledger's trace.CatTransfer.
func (s *System) TransferStats() (toCPU, toGPU int64) {
	return s.toCPUBytes, s.toGPUBytes
}

// GPUHeadroom returns the free GPU bytes.
func (s *System) GPUHeadroom() int64 { return s.Prof.GPUMemBytes - s.gpuUsed }
