package power

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

// The closed-loop feedback scenarios: short hot/cold alternations and
// single-phase runs at an integrating 10 ms tick, driven through the
// Governor, the package's one capping controller.

func TestFeedbackTracksTarget(t *testing.T) {
	// Three hot/cold cycles: the controller must hold the job-average
	// power near the target even though no static cap does.
	target := 65.0
	res := govern(t, mixedSegments(3), target)
	if math.Abs(res.AvgPowerWatts-target) > 0.08*target {
		t.Errorf("achieved average %.2f W, want within 8%% of %.0f W", res.AvgPowerWatts, target)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
}

func TestFeedbackBeatsStaticCapOnTime(t *testing.T) {
	target := 65.0
	segs := mixedSegments(3)
	res := govern(t, segs, target)
	// The static policy: every segment capped at the target.
	static := 0.0
	for _, s := range segs {
		static += s.Exec.UnderCap(target).TimeSec
	}
	if res.TimeSec > static+1e-9 {
		t.Errorf("feedback time %.4fs worse than static cap %.4fs", res.TimeSec, static)
	}
}

func TestFeedbackGenerousTargetNeverThrottles(t *testing.T) {
	segs := []Segment{{Label: "cold", Exec: memoryExec()}}
	res := govern(t, segs, 120)
	free := segs[0].Exec.UnderCap(120).TimeSec
	if math.Abs(res.TimeSec-free) > 0.01*free {
		t.Errorf("generous target time %.4fs, want unconstrained %.4fs", res.TimeSec, free)
	}
	if res.FinalCapWatts != 120 {
		t.Errorf("cap settled at %.1f W, want pinned at TDP", res.FinalCapWatts)
	}
}

func TestFeedbackRejectsTargetBelowFloor(t *testing.T) {
	spec := cpu.BroadwellEP()
	for _, target := range []float64{20, spec.MinCapWatts - 0.5} {
		if _, err := New(newRAPL(), Options{TargetWatts: target}); err == nil {
			t.Errorf("target %.1f W below the %.0f W floor accepted", target, spec.MinCapWatts)
		}
	}
	// The floor itself is enforceable.
	res := govern(t, []Segment{{Label: "hot", Exec: computeExec()}}, spec.MinCapWatts)
	if res.AvgPowerWatts > spec.MinCapWatts*(1+0.02) {
		t.Errorf("floor target averaged %.2f W", res.AvgPowerWatts)
	}
}

func TestFeedbackEnergyAccounting(t *testing.T) {
	res := govern(t, []Segment{{Label: "hot", Exec: computeExec()}}, 80)
	var sampled float64
	for _, s := range res.Samples {
		sampled += s.EnergyJ
	}
	want := res.AvgPowerWatts * res.TimeSec
	if math.Abs(sampled-want) > 0.02*want+0.01 {
		t.Errorf("sampled energy %.2f J vs accounted %.2f J", sampled, want)
	}
}
