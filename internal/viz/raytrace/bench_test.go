package raytrace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz/raytrace"
)

// surfaceBenchTris returns the external faces of the study's hydro data
// set at size n — the same surface the root package's benchmarks trace.
func surfaceBenchTris(b *testing.B, n int) *mesh.TriMesh {
	b.Helper()
	c := (&harness.Config{
		Pool: par.Default(), Sizes: []int{n}, PhaseSize: n,
		MaxSimSize: n, SimTime: 0.05,
	}).Defaults()
	g, err := c.Dataset(n)
	if err != nil {
		b.Fatal(err)
	}
	tris, err := mesh.GridExternalFaces(g, "energy")
	if err != nil {
		b.Fatal(err)
	}
	return tris
}

// BenchmarkBVHBuildPaths compares the parallel binned-SAH construction
// against the sort-median reference build over the external faces at
// 32^3 and 64^3. Results are recorded in BENCH_PR3.json.
func BenchmarkBVHBuildPaths(b *testing.B) {
	for _, n := range []int{32, 64} {
		tris := surfaceBenchTris(b, n)
		b.Run(fmt.Sprintf("ref-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if raytrace.BuildBVHReference(tris) == nil {
					b.Fatal("nil BVH")
				}
			}
			b.ReportMetric(float64(tris.NumTris()), "tris")
		})
		b.Run(fmt.Sprintf("sah-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			pool := par.Default()
			for i := 0; i < b.N; i++ {
				if raytrace.BuildBVHWith(tris, pool) == nil {
					b.Fatal("nil BVH")
				}
			}
			b.ReportMetric(float64(tris.NumTris()), "tris")
		})
	}
}

// BenchmarkAblationBVH compares accelerated and brute-force nearest-hit
// queries on the 24^3 grid surface — the reason the ray tracer builds its
// spatial structure every cycle.
func BenchmarkAblationBVH(b *testing.B) {
	tris := surfaceBenchTris(b, 24)
	bvh := raytrace.BuildBVH(tris)
	rng := rand.New(rand.NewSource(1))
	rays := make([][2]mesh.Vec3, 256)
	for i := range rays {
		orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		rays[i] = [2]mesh.Vec3{orig, dir}
	}
	b.Run("bvh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rays {
				bvh.Intersect(tris, r[0], r[1], nil)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rays {
				raytrace.BruteForceIntersect(tris, r[0], r[1])
			}
		}
	})
}
