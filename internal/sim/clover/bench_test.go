package clover

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// BenchmarkSweepAxis times one sweep along each axis on its own (x and y
// are only reachable together through SweepXY from outside the package),
// so a per-axis regression cannot hide behind a faster neighbor. The EOS
// refresh SweepXY runs after x and y is not included.
func BenchmarkSweepAxis(b *testing.B) {
	for _, n := range []int{64, 128} {
		for dir, axis := range []string{"x", "y", "z"} {
			b.Run(fmt.Sprintf("%s/%d", axis, n), func(b *testing.B) {
				s, err := New(n, Options{})
				if err != nil {
					b.Fatal(err)
				}
				pool := par.Default()
				dt := s.DT(s.MaxSignalSpeed(pool, nil))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.sweep(dir, dt, pool, nil, nil, nil)
				}
				b.ReportMetric(float64(s.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cell-sweeps/s")
			})
		}
	}
}
