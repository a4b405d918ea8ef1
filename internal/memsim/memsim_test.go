package memsim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestProfiles(t *testing.T) {
	for _, name := range []string{"V100-16GB", "V100-32GB", "H100-80GB"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Errorf("profile name %q != %q", p.Name, name)
		}
		if p.PCIeBandwidth != 20e9 {
			t.Errorf("%s: PCIe bandwidth %v, paper specifies 20 GB/s", name, p.PCIeBandwidth)
		}
		if p.GPUMemBytes <= 0 || p.PeakFLOPS <= 0 {
			t.Errorf("%s: nonsensical profile %+v", name, p)
		}
		for _, spelling := range []string{strings.ToUpper(name), strings.ToLower(name)} {
			if other, err := ProfileByName(spelling); err != nil || other != p {
				t.Errorf("ProfileByName(%q) = %+v, %v; want %+v", spelling, other, err, p)
			}
		}
	}
	if _, err := ProfileByName("TPU"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestAllocOOM(t *testing.T) {
	s := NewSystem(Profile{Name: "t", GPUMemBytes: 100, CPUMemBytes: 50, PCIeBandwidth: 1})
	if err := s.AllocGPU(80); err != nil {
		t.Fatal(err)
	}
	err := s.AllocGPU(30)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOMError, got %v", err)
	}
	if oom.Device != "GPU" || oom.Requested != 30 || oom.Used != 80 {
		t.Fatalf("OOM details wrong: %+v", oom)
	}
	// Failed allocation must not change usage.
	if gpu, _ := s.Usage(); gpu != 80 {
		t.Fatalf("usage after failed alloc = %d, want 80", gpu)
	}
}

func TestFreeRestoresHeadroom(t *testing.T) {
	s := NewSystem(Profile{GPUMemBytes: 100, CPUMemBytes: 100, PCIeBandwidth: 1})
	if err := s.AllocGPU(60); err != nil {
		t.Fatal(err)
	}
	s.FreeGPU(60)
	if err := s.AllocGPU(100); err != nil {
		t.Fatalf("free did not restore headroom: %v", err)
	}
	if g, _ := s.Peak(); g != 100 {
		t.Fatalf("peak = %d, want 100", g)
	}
}

func TestOverFreePanics(t *testing.T) {
	s := NewSystem(Profile{GPUMemBytes: 100, CPUMemBytes: 100, PCIeBandwidth: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	s.FreeGPU(1)
}

func TestTransferTimeExact(t *testing.T) {
	s := NewSystem(Profile{GPUMemBytes: 1, CPUMemBytes: 1, PCIeBandwidth: 20e9})
	dt := s.TransferToCPU(40e9 / 2) // 20 GB over a 20 GB/s link
	if math.Abs(dt-1.0) > 1e-12 {
		t.Fatalf("transfer time = %v, want exactly 1s", dt)
	}
	if s.Clock() != dt {
		t.Fatalf("clock %v != transfer time %v", s.Clock(), dt)
	}
	toCPU, toGPU, secs := s.TransferStats()
	if toCPU != 20e9 || toGPU != 0 || secs != dt {
		t.Fatalf("stats = (%d,%d,%v)", toCPU, toGPU, secs)
	}
}

func TestCPUAllocOOM(t *testing.T) {
	s := NewSystem(Profile{GPUMemBytes: 10, CPUMemBytes: 10, PCIeBandwidth: 1})
	if err := s.AllocCPU(10); err != nil {
		t.Fatal(err)
	}
	var oom *OOMError
	if err := s.AllocCPU(1); !errors.As(err, &oom) || oom.Device != "CPU" {
		t.Fatalf("expected CPU OOM, got %v", err)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	s := NewSystem(V100_16G())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	s.Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	s := NewSystem(V100_16G())
	// 0.06037120142222222 + (0.12287120142222223 − 0.06037120142222222)
	// rounds one ulp short of the target; AdvanceTo must not.
	s.Advance(0.06037120142222222)
	const target = 0.12287120142222223
	s.AdvanceTo(target)
	if s.Clock() != target {
		t.Fatalf("clock %v, want exactly %v", s.Clock(), target)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a backwards AdvanceTo")
		}
	}()
	s.AdvanceTo(target / 2)
}

// Property: the clock is monotone under any sequence of operations, and
// usage is always within [0, capacity].
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewSystem(Profile{GPUMemBytes: 1000, CPUMemBytes: 1000, PCIeBandwidth: 7})
		prev := 0.0
		var gpuHeld int64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if err := s.AllocGPU(int64(op)); err == nil {
					gpuHeld += int64(op)
				}
			case 1:
				if gpuHeld > 0 {
					s.FreeGPU(1)
					gpuHeld--
				}
			case 2:
				s.TransferToCPU(int64(op))
			case 3:
				s.Advance(float64(op) / 255)
			}
			if s.Clock() < prev {
				return false
			}
			prev = s.Clock()
			gpu, cpu := s.Usage()
			if gpu < 0 || gpu > 1000 || cpu < 0 || cpu > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer time equals bytes/bandwidth exactly and accumulates
// linearly.
func TestTransferLinearityProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		bw := 13.0
		s := NewSystem(Profile{GPUMemBytes: 1, CPUMemBytes: 1, PCIeBandwidth: bw})
		var total int64
		for _, c := range chunks {
			s.TransferToGPU(int64(c))
			total += int64(c)
		}
		_, toGPU, secs := s.TransferStats()
		if toGPU != total {
			return false
		}
		return math.Abs(secs-float64(total)/bw) < 1e-6*(1+secs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
