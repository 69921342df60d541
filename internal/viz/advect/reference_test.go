package advect

import (
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// RunReference is the straightforward integrator kept as the
// correctness oracle for the compacted sampler-based hot path and as the
// baseline of the advection benchmarks (the same pattern as volren's
// RenderSegmentsReference and raytrace's BuildBVHReference): every RK4
// stage resolves the vector field by name through g.SampleVector, paying
// the per-sample map lookup, world-space locate, and per-component corner
// walk, and every particle grows its own pts/spd slices with append. The
// golden tests hold Run bit-identical to this path — streamline points,
// speeds, and the full operation profile (modulo launch count).
//
// The one deliberate change from the original integrator is the
// cell-crossing metric: it uses the true linearized cell id
// (mesh.(*UniformGrid).CellIndex) instead of the old
// distance-from-origin bucket, which collided distinct cells at equal
// radius and undercounted crossings. Both paths share the fix so their
// profiles stay comparable.
func (f *Filter) RunReference(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	if g.PointVector(f.opts.Vector) == nil {
		return nil, missingVectorErr(f.opts.Vector)
	}
	starts := SeedPoints(g.Bounds(), f.opts.NumParticles)
	return f.runReference(g, ex, starts), nil
}

// runReference integrates an explicit seed list (tests inject
// out-of-bounds seeds through this).
func (f *Filter) runReference(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) *viz.Result {
	b := g.Bounds()
	h := f.opts.StepLength

	type line struct {
		pts []mesh.Vec3
		spd []float64
	}
	lines := make([]line, len(starts))
	cellDiag := g.Spacing.Norm()
	crossingsByWorker := make([]uint64, ex.Pool.Workers())
	// The same out-of-domain seed predicate as Run and dist.Advect.
	deadSeed := RejectSeeds(g, starts, nil)

	ex.Rec(0).Launch()
	ex.Pool.For(len(starts), 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var samples, crossings, stepsTaken uint64
		for pi := lo; pi < hi; pi++ {
			p := starts[pi]
			if f.opts.Adaptive {
				if deadSeed[pi] {
					// Dead at the seed: the arc-length estimate still
					// charges one crossing.
					crossings++
					continue
				}
				apts, aspd, aSamples, aRejects := integrateAdaptive(
					g, f.opts.Vector, p, f.opts.Tolerance, h,
					float64(f.opts.NumSteps)*h, f.opts.NumSteps)
				samples += aSamples
				arc := 0.0
				for i := 1; i < len(apts); i++ {
					arc += apts[i].Sub(apts[i-1]).Norm()
				}
				crossings += uint64(arc/cellDiag) + 1
				stepsTaken += uint64(len(apts))
				// Rejected trials cost controller flops too.
				rec.Flops(aRejects * 20)
				lines[pi] = line{pts: apts, spd: aspd}
				continue
			}
			if deadSeed[pi] {
				continue
			}
			pts := make([]mesh.Vec3, 0, f.opts.NumSteps/4)
			spd := make([]float64, 0, f.opts.NumSteps/4)
			lastCell := -1
			v0, _ := g.SampleVector(f.opts.Vector, p)
			pts = append(pts, p)
			spd = append(spd, v0.Norm())
			for s := 0; s < f.opts.NumSteps; s++ {
				// RK4 with four field samples.
				k1, ok1 := g.SampleVector(f.opts.Vector, p)
				k2, ok2 := g.SampleVector(f.opts.Vector, p.Add(k1.Scale(h/2)))
				k3, ok3 := g.SampleVector(f.opts.Vector, p.Add(k2.Scale(h/2)))
				k4, ok4 := g.SampleVector(f.opts.Vector, p.Add(k3.Scale(h)))
				samples += 4
				if !(ok1 && ok2 && ok3 && ok4) {
					break // left the bounding box: terminate
				}
				delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
				p = p.Add(delta)
				if !b.Contains(p) {
					break
				}
				stepsTaken++
				pts = append(pts, p)
				spd = append(spd, k1.Norm())
				// Track cell crossings for the memory model by the true
				// linearized cell id.
				if cell, inGrid := g.CellIndex(p); inGrid && cell != lastCell {
					crossings++
					lastCell = cell
				}
			}
			lines[pi] = line{pts: pts, spd: spd}
		}
		// RK4 math: three trilinear component reconstructions (~90 flops)
		// per sample plus the step combination; samples read a cache-hot
		// 8-corner neighborhood (resident), and each cell crossing pulls
		// fresh lines.
		rec.Flops(samples*90 + stepsTaken*30)
		rec.IntOps(samples * 24)
		rec.Branches(samples * 6)
		rec.Loads(samples*192, ops.Resident)
		rec.LoadsN(crossings, 192, ops.Random)
		rec.Stores(stepsTaken*32, ops.Stream)
		crossingsByWorker[worker] += crossings
	})

	out := mesh.NewLineSet()
	totalSteps := 0
	for _, l := range lines {
		if len(l.pts) >= 2 {
			out.AppendLine(l.pts, l.spd)
			totalSteps += len(l.pts)
		}
	}
	// The footprint is the field data along the particle paths (capped at
	// the full field: paths overlap) plus the streamline output. Because
	// seed count, step length, and step count are size-independent, so is
	// this working set — the paper's Fig. 6 flat-IPC mechanism.
	var totalCrossings uint64
	for _, c := range crossingsByWorker {
		totalCrossings += c
	}
	pathBytes := totalCrossings * 96
	if fieldBytes := uint64(g.NumPoints()) * 24; pathBytes > fieldBytes {
		pathBytes = fieldBytes
	}
	ex.Rec(0).WorkingSet(pathBytes + uint64(totalSteps)*32)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Lines:    out,
	}
}

// bs23 is the by-name trial step the reference integrator takes: the
// fast paths take the same step through the generic BS23Step kernel
// instantiated with the fused-gather samplers, and bit-identity to bs23
// follows from the samplers' contract. It advances p by one adaptive step
// of size at most h, returning the new position, the velocity at p, the
// error estimate, and whether every field sample stayed inside the domain.
func bs23(g *mesh.UniformGrid, field string, p mesh.Vec3, h float64) (next mesh.Vec3, v0 mesh.Vec3, errEst float64, ok bool) {
	k1, ok1 := g.SampleVector(field, p)
	k2, ok2 := g.SampleVector(field, p.Add(k1.Scale(h/2)))
	k3, ok3 := g.SampleVector(field, p.Add(k2.Scale(3*h/4)))
	if !(ok1 && ok2 && ok3) {
		return p, k1, 0, false
	}
	// Third-order solution.
	next = p.Add(k1.Scale(2 * h / 9)).Add(k2.Scale(h / 3)).Add(k3.Scale(4 * h / 9))
	k4, ok4 := g.SampleVector(field, next)
	if !ok4 {
		return p, k1, 0, false
	}
	// Embedded second-order solution.
	low := p.Add(k1.Scale(7 * h / 24)).Add(k2.Scale(h / 4)).Add(k3.Scale(h / 3)).Add(k4.Scale(h / 8))
	errEst = next.Sub(low).Norm()
	return next, k1, errEst, true
}

// integrateAdaptive traces one streamline with error control: steps are
// accepted when the embedded error estimate is at or below tol, and the
// step size adapts by the standard third-order controller. The particle
// terminates on leaving the bounds, on exceeding maxLen of arc length, or
// after maxSteps accepted steps.
func integrateAdaptive(g *mesh.UniformGrid, field string, start mesh.Vec3,
	tol, h0, maxLen float64, maxSteps int) (pts []mesh.Vec3, spd []float64, samples, rejects uint64) {
	b := g.Bounds()
	hMin, hMax := AdaptiveStepBounds(h0)
	h := h0
	p := start
	v, ok := g.SampleVector(field, p)
	if !ok {
		return nil, nil, 0, 0
	}
	pts = append(pts, p)
	spd = append(spd, v.Norm())
	arc := 0.0
	for step := 0; step < maxSteps && arc < maxLen; step++ {
		for {
			next, v0, errEst, ok := bs23(g, field, p, h)
			samples += 4
			if !ok {
				return pts, spd, samples, rejects // left the domain
			}
			if errEst <= tol || h <= hMin {
				arc += next.Sub(p).Norm()
				p = next
				if !b.Contains(p) {
					return pts, spd, samples, rejects
				}
				pts = append(pts, p)
				spd = append(spd, v0.Norm())
				// Grow the step for the next round.
				h = StepController(h, errEst, tol, hMin, hMax)
				break
			}
			rejects++
			h = StepController(h, errEst, tol, hMin, hMax)
		}
	}
	return pts, spd, samples, rejects
}
