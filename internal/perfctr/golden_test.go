package perfctr

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/rapl"
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

// TestTraceGolden pins the measurement loop bit for bit: every field of
// every sample and every per-segment governed result of a fixed
// compute-then-memory execution list under a 70 W limit, sampled every
// 7 ms so sample edges fall inside segments and a partial interval ends
// the run. The digest was recorded when Trace still drove its counters
// and sampler inline, so any rewrite of that driver must reproduce each
// sample exactly.
func TestTraceGolden(t *testing.T) {
	pkg := rapl.NewPackage(msr.NewFile(), cpu.BroadwellEP())
	if err := pkg.SetLimitWatts(70); err != nil {
		t.Fatal(err)
	}
	samples, results, err := Trace(pkg, []cpu.Execution{testExec(true), testExec(false)}, 0.007)
	if err != nil {
		t.Fatal(err)
	}
	var vs []float64
	for _, s := range samples {
		vs = append(vs, s.TimeSec, s.IntervalSec, s.EnergyJ, s.PowerW, s.EffFreqGHz, s.IPC, s.LLCMissRate)
	}
	for _, r := range results {
		vs = append(vs, r.CapWatts, r.FreqGHz, r.TimeSec, r.PowerWatts, r.EnergyJ, r.IPC, r.LLCMissRate)
	}
	const wantSamples, wantDigest = 28, "c25afc7da60d95dd"
	if len(samples) != wantSamples || floatDigest(vs) != wantDigest {
		t.Errorf("Trace: %d samples, digest %s; want %d, %s", len(samples), floatDigest(vs), wantSamples, wantDigest)
	}
}
