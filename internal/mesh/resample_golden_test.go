package mesh

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// goldenSource builds a cube grid carrying two cell fields, one point
// field without a cell twin, and a point vector field, all smooth but
// non-linear so every interpolation weight matters.
func goldenSource(t testing.TB, n int) *UniformGrid {
	t.Helper()
	g := mustCube(t, n)
	e := g.AddCellField("energy")
	d := g.AddCellField("density")
	for c := range e {
		p := g.CellCenter(c)
		e[c] = math.Sin(7*p[0]) * math.Cos(5*p[1]) * math.Exp(p[2])
		d[c] = 0.2 + p[0]*p[1] + math.Sqrt(p[2])
	}
	pf := g.AddPointField("phi")
	vf := g.AddPointVector("velocity")
	for id := range pf {
		p := g.PointPosition(id)
		pf[id] = math.Cos(3*p[0]+2*p[1]) - p[2]*p[2]
		vf[id] = Vec3{math.Sin(4 * p[1]), p[0] * p[2], -math.Cos(6 * p[0] * p[1])}
	}
	return g
}

// gridHash digests every cell, point and vector field of g (by sorted
// name, raw float64 bits) with FNV-64a.
func gridHash(g *UniformGrid) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	names := func(m map[string][]float64) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, name := range names(g.cellFields) {
		h.Write([]byte("cell:" + name))
		for _, v := range g.cellFields[name] {
			put(v)
		}
	}
	for _, name := range names(g.pointFields) {
		h.Write([]byte("point:" + name))
		for _, v := range g.pointFields[name] {
			put(v)
		}
	}
	var vnames []string
	for k := range g.pointVectors {
		vnames = append(vnames, k)
	}
	sort.Strings(vnames)
	for _, name := range vnames {
		h.Write([]byte("vector:" + name))
		for _, v := range g.pointVectors[name] {
			put(v[0])
			put(v[1])
			put(v[2])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestResampleCubeGolden pins ResampleCube's output bit for bit against
// digests recorded from the serial implementation: 16³→32³ runs the
// power-of-two (reciprocal-multiply) index path, 12³→20³ the division
// path.
func TestResampleCubeGolden(t *testing.T) {
	cases := []struct {
		from, to int
		want     string
	}{
		{16, 32, "595814d5f45dbbbd"},
		{12, 20, "4764620b708eb040"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			up, err := ResampleCube(goldenSource(t, tc.from), tc.to)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(up.cellFields) + len(up.pointFields) + len(up.pointVectors); got != 2+3+1 {
				t.Fatalf("resampled grid carries %d fields, want 6", got)
			}
			if got := gridHash(up); got != tc.want {
				t.Errorf("resampled field hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkResampleCube times a 64³→128³ resample of the golden source
// fields (two cell fields, a point field, a vector field).
func BenchmarkResampleCube(b *testing.B) {
	g := goldenSource(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ResampleCube(g, 128); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(129*129*129)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
