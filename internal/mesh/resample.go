package mesh

import (
	"fmt"

	"repro/internal/par"
)

// ResampleCube produces an n-cell cube grid whose fields are trilinear
// resamplings of g's fields: every cell field (via its recentered point
// version), every point field, and every point vector field. The study
// harness uses it to synthesize data-set sizes larger than the largest
// hydro run that is practical here (a documented substitution; the
// visualization workloads only care about field smoothness and feature
// scale, which resampling preserves).
//
// Each field pass is split into z-planes of the output on the default
// pool. Every probe is an independent ScalarSampler/VectorSampler.Sample
// at exactly the position PointPosition or CellCenter gives for its id,
// so the output is bit-identical to per-probe SampleScalarField /
// SampleVector calls on any worker count.
func ResampleCube(g *UniformGrid, n int) (*UniformGrid, error) {
	out, err := NewCubeGrid(n)
	if err != nil {
		return nil, err
	}
	if g.Bounds() != out.Bounds() {
		return nil, fmt.Errorf("mesh: ResampleCube requires a unit-cube source, got bounds %+v", g.Bounds())
	}

	// Make sure every cell field has a point version to sample.
	for name := range g.cellFields {
		if g.pointFields[name] == nil {
			if _, err := g.CellToPoint(name); err != nil {
				return nil, err
			}
		}
	}
	pool := par.Default()
	points, centers := newLattice(out, 0), newLattice(out, 0.5)
	for name := range g.cellFields {
		s := ScalarSamplerFor(g, g.pointFields[name])
		sample(pool, centers, s, out.AddCellField(name))
		sample(pool, points, s, out.AddPointField(name))
	}
	for name, src := range g.pointFields {
		if out.pointFields[name] != nil {
			continue // already produced alongside the cell field
		}
		sample(pool, points, ScalarSamplerFor(g, src), out.AddPointField(name))
	}
	for name := range g.pointVectors {
		s, err := NewVectorSampler(g, name)
		if err != nil {
			return nil, err
		}
		sample(pool, points, s, out.AddPointVector(name))
	}
	return out, nil
}

// lattice holds the probe coordinates of a resample along each axis:
// a grid's points (offset 0) or its cell centers (offset 0.5), computed
// with the expressions of PointPosition and CellCenter so the probes
// match them bit for bit. Probes run x-fastest, matching id order.
type lattice struct {
	x, y, z []float64
}

func newLattice(g *UniformGrid, offset float64) lattice {
	axis := func(a, n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = g.Origin[a] + (float64(i)+offset)*g.Spacing[a]
		}
		return c
	}
	n := g.Dims
	if offset != 0 {
		n = g.CellDims()
	}
	return lattice{axis(0, n[0]), axis(1, n[1]), axis(2, n[2])}
}

// sample fills dst with proto's samples at every probe of l (zero
// outside the source), one z-plane per loop iteration. Samplers cache
// their last cell, so each chunk samples through its own copy.
func sample[T any, S any, P interface {
	*S
	Sample(Vec3) (T, bool)
}](pool *par.Pool, l lattice, proto P, dst []T) {
	plane := len(l.x) * len(l.y)
	pool.For(len(l.z), 0, func(lo, hi, _ int) {
		s := *proto
		id := lo * plane
		for _, z := range l.z[lo:hi] {
			for _, y := range l.y {
				for _, x := range l.x {
					dst[id], _ = P(&s).Sample(Vec3{x, y, z})
					id++
				}
			}
		}
	})
}
