// Benchmarks for the render hot path: the traced frame and the
// pipelined cinema sink against the synchronous one. Results are recorded
// in BENCH_PR3.json. The rows that race a test-only oracle live next to
// it: BenchmarkVolrenFrame in internal/viz/volren and
// BenchmarkBVHBuildPaths in internal/viz/raytrace.
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cinema"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// blobBenchGrid builds a gaussian-blob volume (the volren test data set)
// at size n, cached across benchmarks.
var blobBenchGrids = map[int]*mesh.UniformGrid{}

func blobBenchGrid(b *testing.B, n int) *mesh.UniformGrid {
	b.Helper()
	if g, ok := blobBenchGrids[n]; ok {
		return g
	}
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		b.Fatal(err)
	}
	f := g.AddPointField("energy")
	c := mesh.Vec3{0.5, 0.5, 0.5}
	for id := 0; id < g.NumPoints(); id++ {
		d := g.PointPosition(id).Sub(c).Norm()
		f[id] = math.Exp(-10 * d * d)
	}
	blobBenchGrids[n] = g
	return g
}

// BenchmarkRayTraceFrame traces one 128x128 orbit frame of the external
// surface at 32^3 and 64^3.
func BenchmarkRayTraceFrame(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			g := benchGrid(b, n)
			ex := viz.NewExec(par.Default())
			scene, err := raytrace.GatherScene(g, "energy", ex)
			if err != nil {
				b.Fatal(err)
			}
			cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
			var im *render.Image
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im = scene.RenderInto(im, cam, 128, 128, ex)
			}
			b.ReportMetric(float64(g.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkCinemaOrbitSink writes an 8-frame volume-rendered orbit
// database, with the synchronous writer and with the pipelined encode
// queue.
func BenchmarkCinemaOrbitSink(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			g := blobBenchGrid(b, 32)
			for i := 0; i < b.N; i++ {
				db, err := cinema.New(b.TempDir(), "bench orbit", "Volume Rendering")
				if err != nil {
					b.Fatal(err)
				}
				if mode == "async" {
					db.StartAsync(0, 0)
				}
				f := volren.New(volren.Options{
					Field: "energy", Images: 8, Width: 128, Height: 128, Sink: db.Sink(),
				})
				if _, err := f.Run(g, viz.NewExec(par.Default())); err != nil {
					b.Fatal(err)
				}
				if err := db.Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
