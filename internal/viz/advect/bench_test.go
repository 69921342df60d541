package advect

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/viz"
)

// BenchmarkAdvectPaths advects 1024 particles for up to 1000 RK4 steps
// through the reference and fast integrators, fixed-step and adaptive,
// at 32^3/64^3/128^3. particle-steps/s counts emitted streamline
// vertices per second, the paper's throughput unit for this algorithm.
// Results are recorded in BENCH_PR4.json.
func BenchmarkAdvectPaths(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := shearFlow(b, n)
		for _, cfg := range []struct {
			name      string
			adaptive  bool
			reference bool
		}{
			{"ref", false, true},
			{"fast", false, false},
			{"ref-adaptive", true, true},
			{"fast-adaptive", true, false},
		} {
			b.Run(fmt.Sprintf("%s-%d", cfg.name, n), func(b *testing.B) {
				f := New(Options{
					NumParticles: 1024, NumSteps: 1000, StepLength: 0.001,
					Adaptive: cfg.adaptive,
				})
				ex := viz.NewExec(par.Default())
				var steps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var res *viz.Result
					var err error
					if cfg.reference {
						res, err = f.RunReference(g, ex)
					} else {
						res, err = f.Run(g, ex)
					}
					if err != nil {
						b.Fatal(err)
					}
					steps += uint64(res.Lines.TotalPoints())
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "particle-steps/s")
			})
		}
	}
}
