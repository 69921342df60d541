// Benchmarks for the hydro hot path: the clover split sweeps through
// their public entry points. Recorded in BENCH_PR4.json next to
// internal/viz/advect's BenchmarkAdvectPaths.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/sim/clover"
)

// BenchmarkCloverSweep measures the hydro solver's split sweeps through
// their public entry points at 64³ and 128³: "xy" is SweepXY (the x and
// y sweeps with their EOS refresh passes, two cell-sweeps per cell) and
// "z" is SweepZ, the sweep whose pencils stride a whole plane per cell.
// internal/sim/clover's BenchmarkSweepAxis splits x from y.
func BenchmarkCloverSweep(b *testing.B) {
	for _, n := range []int{64, 128} {
		for _, axis := range []string{"xy", "z"} {
			b.Run(fmt.Sprintf("%s/%d", axis, n), func(b *testing.B) {
				s, err := clover.New(n, clover.Options{})
				if err != nil {
					b.Fatal(err)
				}
				pool := par.Default()
				dt := s.DT(s.MaxSignalSpeed(pool, nil))
				sweeps := 1.0
				if axis == "xy" {
					sweeps = 2
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if axis == "xy" {
						s.SweepXY(dt, pool, nil)
					} else {
						s.SweepZ(dt, pool, nil, nil, nil)
					}
				}
				b.ReportMetric(float64(s.NumCells())*sweeps*float64(b.N)/b.Elapsed().Seconds(), "cell-sweeps/s")
			})
		}
	}
}
