package power

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
)

// mixedSegments is the canonical alternating workload: a hot
// compute-bound phase and a cold bandwidth-bound phase, cycles times.
func mixedSegments(cycles int) []Segment {
	hot := computeExec()
	cold := memoryExec()
	segs := make([]Segment, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		segs = append(segs, Segment{Label: "hot", Exec: hot}, Segment{Label: "cold", Exec: cold})
	}
	return segs
}

func govern(t *testing.T, segs []Segment, target float64) Result {
	t.Helper()
	g, err := New(newRAPL(), Options{TargetWatts: target, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGovernorRejectsTargetBelowFloor(t *testing.T) {
	if _, err := New(newRAPL(), Options{TargetWatts: 20}); err == nil {
		t.Error("target below floor accepted")
	}
}

func TestGovernorClassifiesPhasesOnline(t *testing.T) {
	res := govern(t, mixedSegments(6), 65)
	var lastHot, lastCold PhaseReport
	for _, p := range res.Phases {
		if p.Label == "hot" {
			lastHot = p
		} else {
			lastCold = p
		}
	}
	if lastHot.Class != core.PowerSensitive {
		t.Errorf("hot phase classified %v (score %.2f)", lastHot.Class, lastHot.Score)
	}
	if lastCold.Class != core.PowerOpportunity {
		t.Errorf("cold phase classified %v (score %.2f)", lastCold.Class, lastCold.Score)
	}
}

func TestGovernorTracksTarget(t *testing.T) {
	target := 65.0
	res := govern(t, mixedSegments(8), target)
	if math.Abs(res.AvgPowerWatts-target) > 0.02*target {
		t.Errorf("achieved average %.2f W, want within 2%% of %.0f W", res.AvgPowerWatts, target)
	}
}

func TestGovernorBeatsUniformCapOnTime(t *testing.T) {
	target := 65.0
	segs := mixedSegments(8)
	res := govern(t, segs, target)
	uniform := 0.0
	for _, s := range segs {
		uniform += s.Exec.UnderCap(target).TimeSec
	}
	if res.TimeSec >= uniform {
		t.Errorf("governed time %.4fs not better than uniform cap %.4fs", res.TimeSec, uniform)
	}
	// And never by overspending: the uniform policy's energy is an
	// upper bound at this average.
	if res.AvgPowerWatts > target*(1+0.02) {
		t.Errorf("governed average %.2f W exceeds the %.0f W budget", res.AvgPowerWatts, target)
	}
}

func TestGovernorEnergyAccounting(t *testing.T) {
	res := govern(t, mixedSegments(4), 70)
	if res.TimeSec <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if got := res.EnergyJ / res.TimeSec; math.Abs(got-res.AvgPowerWatts) > 1e-9 {
		t.Errorf("average identity broken: %.4f vs %.4f", got, res.AvgPowerWatts)
	}
	var phaseJ, phaseT float64
	for _, p := range res.Phases {
		phaseJ += p.EnergyJ
		phaseT += p.TimeSec
	}
	if math.Abs(phaseJ-res.EnergyJ) > 1e-6*res.EnergyJ {
		t.Errorf("phase energies sum to %.2f J, run spent %.2f J", phaseJ, res.EnergyJ)
	}
	if math.Abs(phaseT-res.TimeSec) > 1e-9 {
		t.Errorf("phase times sum to %.4fs, run took %.4fs", phaseT, res.TimeSec)
	}
}

func TestGovernorClassDemand(t *testing.T) {
	res := govern(t, mixedSegments(6), 65)
	demand := res.ClassDemand()
	hotW, ok := demand[core.PowerSensitive]
	if !ok {
		t.Fatal("no sensitive-class demand measured")
	}
	coldW, ok := demand[core.PowerOpportunity]
	if !ok {
		t.Fatal("no opportunity-class demand measured")
	}
	// The measured demands must bracket the synthetic phases' true
	// demands (95.1 W and 58.9 W) well apart from each other.
	if hotW <= coldW+10 {
		t.Errorf("class demands not separated: sensitive %.1f W, opportunity %.1f W", hotW, coldW)
	}
	if coldW > 65 {
		t.Errorf("opportunity demand %.1f W above the cold phase's draw", coldW)
	}
}

func TestGovernorSampleBound(t *testing.T) {
	g, err := New(newRAPL(), Options{TargetWatts: 65, IntervalSec: 0.001, MaxSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSegments(mixedSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) > 64 {
		t.Fatalf("retained %d samples, cap is 64", len(res.Samples))
	}
	if res.SamplesDropped == 0 {
		t.Error("long run evicted nothing")
	}
}

func newGovernedPipeline(t *testing.T, workers int) *core.Pipeline {
	t.Helper()
	sim, err := clover.New(12, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filters := []viz.Filter{
		contour.New(contour.Options{Field: "energy", NumIsovalues: 3}),
		threshold.New(threshold.Options{Field: "energy"}),
	}
	pool := par.NewPool(workers)
	tr := telemetry.New(workers)
	pool.Instrument(tr)
	pipe, err := core.NewPipeline(sim, filters, 5, pool, cpu.BroadwellEP())
	if err != nil {
		t.Fatal(err)
	}
	pipe.Tracer = tr
	return pipe
}

func TestGovernorRunRealPipeline(t *testing.T) {
	pipe := newGovernedPipeline(t, 2)
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 || len(res.Segments) != 4 {
		t.Fatalf("2 cycles produced %d phases, %d segments", len(res.Phases), len(res.Segments))
	}
	wantLabels := []string{"simulate", "visualize", "simulate", "visualize"}
	for i, p := range res.Phases {
		if p.Label != wantLabels[i] {
			t.Errorf("phase %d labeled %q, want %q", i, p.Label, wantLabels[i])
		}
		if p.TimeSec <= 0 {
			t.Errorf("phase %d has no time: %+v", i, p)
		}
		if p.TraceHi <= p.TraceLo {
			t.Errorf("phase %d captured no trace window", i)
		}
	}
	if pipe.Cycle() != 2 {
		t.Errorf("pipeline advanced %d cycles, want 2", pipe.Cycle())
	}
	spec := cpu.BroadwellEP()
	if res.FinalCapWatts < spec.MinCapWatts || res.FinalCapWatts > spec.TDPWatts {
		t.Errorf("final cap %.1f W outside the enforceable range", res.FinalCapWatts)
	}
	if res.AvgPowerWatts > 65*(1+0.02) {
		t.Errorf("governed pipeline averaged %.2f W over a 65 W target", res.AvgPowerWatts)
	}
}

func TestGovernorSegmentsReplayMatchesRun(t *testing.T) {
	// Replaying the recorded segments at the same target through a
	// fresh governor must reproduce the live run bit for bit — the
	// property the equal-energy comparison harness is built on. Every
	// cap decision reads only the modeled counters, never the wall
	// clock or the pool, so nothing the live run saw is missing from
	// the replay.
	pipe := newGovernedPipeline(t, 2)
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	live, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := g2.RunSegments(live.Segments)
	if err != nil {
		t.Fatal(err)
	}
	if replay.TimeSec != live.TimeSec || replay.EnergyJ != live.EnergyJ || replay.Reprograms != live.Reprograms {
		t.Errorf("replay diverged: %vs/%vJ/%d reprograms vs live %vs/%vJ/%d",
			replay.TimeSec, replay.EnergyJ, replay.Reprograms, live.TimeSec, live.EnergyJ, live.Reprograms)
	}
	if len(replay.Phases) != len(live.Phases) {
		t.Fatalf("replay governed %d phases, live %d", len(replay.Phases), len(live.Phases))
	}
	for i, lp := range live.Phases {
		rp := replay.Phases[i]
		if rp.Class != lp.Class || rp.Score != lp.Score ||
			rp.CapStartWatts != lp.CapStartWatts || rp.CapEndWatts != lp.CapEndWatts {
			t.Errorf("phase %d (%s): replay %v/%v caps %v->%v, live %v/%v caps %v->%v", i, lp.Label,
				rp.Class, rp.Score, rp.CapStartWatts, rp.CapEndWatts,
				lp.Class, lp.Score, lp.CapStartWatts, lp.CapEndWatts)
		}
	}
}
