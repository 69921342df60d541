package power

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/perfctr"
	"repro/internal/rapl"
)

// computeExec is a compute-bound (power-sensitive) synthetic phase and
// memoryExec a bandwidth-bound (power-opportunity) one — the same pair
// the core classification tests calibrate against.
func computeExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 8e9
	p.LoadBytes[ops.Resident] = 16e9
	p.WorkingSetBytes = 16 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func memoryExec() cpu.Execution {
	var p ops.Profile
	p.Flops = 4e8
	p.LoadBytes[ops.Stream] = 24e9
	p.WorkingSetBytes = 140 << 20
	p.Launches = 2
	return cpu.Analyze(cpu.BroadwellEP(), p, 0)
}

func newRAPL() *rapl.Package {
	return rapl.NewPackage(msr.NewFile(), cpu.BroadwellEP())
}

func TestSampleRing(t *testing.T) {
	r := newSampleRing(4)
	for i := 0; i < 10; i++ {
		r.push(perfctr.Sample{TimeSec: float64(i)})
	}
	got := r.samples()
	if len(got) != 4 || r.dropped() != 6 {
		t.Fatalf("len %d dropped %d, want 4 and 6", len(got), r.dropped())
	}
	for i, s := range got {
		if s.TimeSec != float64(6+i) {
			t.Errorf("slot %d holds t=%.0f, want %.0f", i, s.TimeSec, float64(6+i))
		}
	}
}
