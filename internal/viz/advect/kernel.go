package advect

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/viz"
)

// The integration kernels shared by the shared-memory hot path (Run)
// and the distributed path (dist.Advect): one fixed RK4 step and one
// embedded Bogacki–Shampine 3(2) trial step, generic over the sampler
// type so each instantiation dispatches statically (no interface call
// in the stage loop) while keeping one definition of the arithmetic.
// The golden tests hold Run bit-identical to the by-name integrator kept
// in the package tests (RunReference), which pins these kernels to the
// reference's exact operation order; dist.Advect's bit-identity to Run
// then follows from sharing them.
//
// Adaptive integration uses the embedded Bogacki–Shampine 3(2) pair: a
// third-order step with a second-order error estimate, growing the step
// through smooth flow and shrinking it where the field bends. The paper's
// study uses fixed-step RK4 (and so does this package by default); the
// adaptive mode is an extension for users who care about trajectory
// accuracy per sample rather than a fixed cost per particle.

// Field is the sampling interface the kernels integrate over. Both
// mesh.VectorSampler and mesh.BlockVectorSampler satisfy it; ok=false
// means the probe left the sampling domain.
type Field interface {
	Sample(p mesh.Vec3) (mesh.Vec3, bool)
}

// RK4Step advances p by one fixed step h of classic fourth-order
// Runge–Kutta. It returns the next position, the velocity at p (the
// speed scalar recorded on streamlines), and ok=false when any of the
// four stage samples left the domain — in which case next is p
// unchanged, exactly as the reference integrator behaves.
func RK4Step[F Field](s F, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, ok bool) {
	k1, ok1 := s.Sample(p)
	k2, ok2 := s.Sample(p.Add(k1.Scale(h / 2)))
	k3, ok3 := s.Sample(p.Add(k2.Scale(h / 2)))
	k4, ok4 := s.Sample(p.Add(k3.Scale(h)))
	if !(ok1 && ok2 && ok3 && ok4) {
		return p, k1, false
	}
	delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
	return p.Add(delta), k1, true
}

// BS23Step attempts one Bogacki–Shampine 3(2) trial step of size h:
// the third-order solution, the velocity at p, the embedded
// second-order error estimate, and ok=false when any stage sample left
// the domain (next is then p unchanged). The caller accepts or rejects
// against its tolerance and reshapes h with StepController.
func BS23Step[F Field](s F, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, errEst float64, ok bool) {
	k1, ok1 := s.Sample(p)
	k2, ok2 := s.Sample(p.Add(k1.Scale(h / 2)))
	k3, ok3 := s.Sample(p.Add(k2.Scale(3 * h / 4)))
	if !(ok1 && ok2 && ok3) {
		return p, k1, 0, false
	}
	// Third-order solution.
	next = p.Add(k1.Scale(2 * h / 9)).Add(k2.Scale(h / 3)).Add(k3.Scale(4 * h / 9))
	k4, ok4 := s.Sample(next)
	if !ok4 {
		return p, k1, 0, false
	}
	// Embedded second-order solution.
	low := p.Add(k1.Scale(7 * h / 24)).Add(k2.Scale(h / 4)).Add(k3.Scale(h / 3)).Add(k4.Scale(h / 8))
	errEst = next.Sub(low).Norm()
	return next, k1, errEst, true
}

// StepController reshapes the adaptive step after a trial: the standard
// I-controller for a third-order method, clamped to [hMin, hMax].
func StepController(h, errEst, tol, hMin, hMax float64) float64 {
	if errEst <= 0 {
		return math.Min(h*5, hMax)
	}
	factor := 0.9 * math.Cbrt(tol/errEst)
	if factor < 0.2 {
		factor = 0.2
	}
	if factor > 5 {
		factor = 5
	}
	h *= factor
	if h < hMin {
		h = hMin
	}
	if h > hMax {
		h = hMax
	}
	return h
}

// AdaptiveStepBounds returns the [hMin, hMax] clamp range every
// adaptive integration path derives from the initial step h0.
func AdaptiveStepBounds(h0 float64) (hMin, hMax float64) {
	return h0 / 64, h0 * 16
}

// RejectSeeds marks the seeds outside g's sampling domain, writing
// into dead (grown as needed) and returning it. This is the one
// out-of-domain predicate shared by Run, dist.Advect, and the test
// oracle RunReference: mesh.(*UniformGrid).InDomain, the exact bounds
// test of every sampling path, so a seed on the domain boundary is kept
// or rejected identically everywhere.
func RejectSeeds(g *mesh.UniformGrid, starts []mesh.Vec3, dead []bool) []bool {
	if cap(dead) < len(starts) {
		dead = make([]bool, len(starts))
	}
	dead = dead[:len(starts)]
	for i, p := range starts {
		dead[i] = !g.InDomain(p)
	}
	return dead
}

// Options returns the filter's normalized configuration.
func (f *Filter) Options() Options { return f.opts }

// RunSeeds executes the fast integrator over an explicit seed list
// (the distributed golden tests inject crafted seeds through this).
func (f *Filter) RunSeeds(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) (*viz.Result, error) {
	if g.PointVector(f.opts.Vector) == nil {
		return nil, missingVectorErr(f.opts.Vector)
	}
	return f.run(g, ex, starts), nil
}
