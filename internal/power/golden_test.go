package power

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// floatDigest folds the raw float64 bits of vs into one FNV-64a digest,
// so a change in any bit of any value shows.
func floatDigest(vs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunSegmentsGolden pins a governed replay bit for bit: each
// phase's caps, time, energy and last-sample readings, the run totals,
// and every flight-recorded cap decision. The digest was re-recorded
// when the class score became the newest sample's vote instead of an
// EWMA: only the Score values moved, and with them left out every other
// value hashes the same before and after.
func TestRunSegmentsGolden(t *testing.T) {
	res := govern(t, mixedSegments(4), 65)
	vs := []float64{res.TimeSec, res.EnergyJ, res.AvgPowerWatts, res.FinalCapWatts, float64(res.Reprograms)}
	for _, p := range res.Phases {
		vs = append(vs, float64(p.Cycle), float64(p.Class), p.Score, p.CapStartWatts, p.CapEndWatts,
			p.TimeSec, p.EnergyJ, p.AvgPowerWatts, p.EffFreqGHz, p.IPC, p.LLCMissRate,
			p.DemandWatts, float64(p.Ticks))
	}
	for _, d := range res.Decisions {
		vs = append(vs, d.TimeSec, float64(d.Cycle), d.Score, d.FeedforwardW, d.BankJ, d.TrimW,
			d.OldWatts, d.NewWatts, float64(len(d.Reason)))
	}
	for _, s := range res.Samples {
		vs = append(vs, s.TimeSec, s.IntervalSec, s.EnergyJ, s.PowerW, s.EffFreqGHz, s.IPC, s.LLCMissRate)
	}
	const wantPhases, wantDecisions, wantDigest = 8, 21, "c8c49f9cbe443290"
	if len(res.Phases) != wantPhases || len(res.Decisions) != wantDecisions || floatDigest(vs) != wantDigest {
		t.Errorf("RunSegments: %d phases, %d decisions, digest %s; want %d, %d, %s",
			len(res.Phases), len(res.Decisions), floatDigest(vs), wantPhases, wantDecisions, wantDigest)
	}
}

// TestAttributeGolden pins the per-phase joules split on synthetic
// phases: two traced phases with nested spans on two tracks, one
// untraced replay phase and one traced phase whose window holds no
// spans. The rows were recorded from the split Result.Attribute did
// inline before it called obs.Attribute per phase.
func TestAttributeGolden(t *testing.T) {
	spans := []telemetry.Span{
		{Name: "simulate", Track: 0, Start: 0, Dur: 3_000},
		{Name: "par.For", Track: 0, Start: 500, Dur: 2_000},
		{Name: "par.chunks", Track: 1, Start: 600, Dur: 1_700},
		{Name: "contour", Track: 0, Start: 4_000, Dur: 2_500},
		{Name: "par.For", Track: 0, Start: 4_100, Dur: 1_000},
		{Name: "par.chunks", Track: 1, Start: 4_200, Dur: 900},
		{Name: "render", Track: 0, Start: 6_600, Dur: 700},
	}
	res := Result{Phases: []PhaseReport{
		{Label: "simulate", EnergyJ: 31.25, TraceLo: 0, TraceHi: 3_500},
		{Label: "viz", EnergyJ: 17.5, TraceLo: 3_500, TraceHi: 8_000},
		{Label: "replay", EnergyJ: 4.75},
		{Label: "empty", EnergyJ: 2.125, TraceLo: 9_000, TraceHi: 9_500},
	}}
	rows := res.Attribute(spans)
	var got string
	var vs []float64
	for _, r := range rows {
		got += fmt.Sprintf("%s/%d ", r.Stage, r.Count)
		vs = append(vs, r.SelfSec, r.Joules, r.Share)
	}
	const wantRows, wantDigest = "par.For/2 par.chunks/2 (untraced)/0 simulate/1 contour/1 render/1 ", "fe27b12097e80e88"
	if got != wantRows || floatDigest(vs) != wantDigest {
		t.Errorf("Attribute rows %q digest %s; want %q, %s", got, floatDigest(vs), wantRows, wantDigest)
	}
}
