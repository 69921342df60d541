// Package advect implements the study's particle-advection algorithm:
// massless particles seeded throughout the data set are advected through
// a steady-state vector field with fourth-order Runge–Kutta integration
// for a fixed number of fixed-length steps, producing streamlines.
// Following the paper (§VI-C3), the seed count, step length, and step
// count are held constant regardless of the data-set size; particles that
// leave the bounding box terminate. RK4's dense floating-point work and
// the small per-particle memory footprint make this one of the two
// power-sensitive (compute-bound) algorithms of the study.
//
// The production integrator (this file) runs on the mesh sampling layer:
// the vector field is resolved by name once per launch into a
// mesh.VectorSampler (fused eight-corner gather, last-cell corner cache,
// exact reciprocal spacing on the study's power-of-two grids), particle
// state lives in SoA slices, and the step loop is split into rounds of a
// few hundred steps with the active list compacted between rounds so
// terminated particles stop costing iterations. Streamline points and
// speeds accumulate in per-worker arenas (segments stitched into the
// output LineSet at the end) instead of per-particle append slices, and
// the whole working state is leased from the pool scratch store across
// runs. The original per-name integrator it replaced lives in the
// package tests (RunReference); golden tests hold the two bit-identical.
package advect

import (
	"fmt"
	"sort"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Vector is the point vector field advected through. Default
	// "velocity".
	Vector string
	// NumParticles is the seed count. Default 1024.
	NumParticles int
	// NumSteps is the maximum steps per particle. Default 1000.
	NumSteps int
	// StepLength is the integration step in world units. Default 0.002
	// (constant across data sizes, as in the paper).
	StepLength float64
	// Adaptive switches from the paper's fixed-step RK4 to the embedded
	// Bogacki–Shampine 3(2) pair with error control (an extension; see
	// kernel.go). StepLength becomes the initial step and NumSteps
	// bounds both the accepted-step count and the total arc length
	// (NumSteps × StepLength).
	Adaptive bool
	// Tolerance is the per-step error bound in adaptive mode.
	// Default 1e-5 world units.
	Tolerance float64
}

// Filter is the particle-advection algorithm.
type Filter struct{ opts Options }

// New creates a particle-advection filter.
func New(opts Options) *Filter {
	if opts.Vector == "" {
		opts.Vector = "velocity"
	}
	if opts.NumParticles <= 0 {
		opts.NumParticles = 1024
	}
	if opts.NumSteps <= 0 {
		opts.NumSteps = 1000
	}
	if opts.StepLength <= 0 {
		opts.StepLength = 0.002
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-5
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Particle Advection" }

func missingVectorErr(name string) error {
	return fmt.Errorf("advect: grid has no point vector field %q", name)
}

// SeedPoints places n particles on a jittered lattice through b,
// deterministically (a fixed linear congruential generator). It is the
// filter's one seed stream, so the distributed path advects exactly the
// particles Run would.
func SeedPoints(b mesh.Bounds, n int) []mesh.Vec3 {
	side := 1
	for side*side*side < n {
		side++
	}
	out := make([]mesh.Vec3, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	size := b.Size()
	for k := 0; k < side && len(out) < n; k++ {
		for j := 0; j < side && len(out) < n; j++ {
			for i := 0; i < side && len(out) < n; i++ {
				p := mesh.Vec3{
					b.Lo[0] + size[0]*(float64(i)+0.2+0.6*next())/float64(side),
					b.Lo[1] + size[1]*(float64(j)+0.2+0.6*next())/float64(side),
					b.Lo[2] + size[2]*(float64(k)+0.2+0.6*next())/float64(side),
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// stepsPerRound is the batch length of one compacted parallel pass: long
// enough that dispatch cost vanishes against the integration work, short
// enough that early-terminating seed populations (a uniform flow exits
// the box in a few hundred steps) shed their dead particles quickly.
const stepsPerRound = 256

// segment is one round's worth of one particle's streamline, recorded in
// a worker arena. Final assembly sorts segments by (pid, seq) and copies
// them into the output LineSet.
type segment struct {
	pid int32 // particle index
	seq int32 // round number
	wk  int32 // worker arena holding the points
	off int32 // offset into that arena
	n   int32 // point count
}

// arena is one worker's growing streamline storage: points and speeds
// accumulate contiguously per (particle, round), replacing the
// per-particle append slices of the reference integrator.
type arena struct {
	pts  []mesh.Vec3
	spd  []float64
	segs []segment
}

// advectScratch is the reusable working state of one advection run: SoA
// particle arrays, per-worker arenas, and assembly buffers. It is leased
// from the pool scratch store so repeated runs (the study's sweeps run
// the filter hundreds of times) allocate almost nothing.
type advectScratch struct {
	px, py, pz []float64
	cell       []int32 // last crossed cell id, -1 initially (fixed-step)
	pid        []int32
	dead       []bool
	// Adaptive-mode state.
	h, arc   []float64
	accepted []int32
	// Per-worker streamline arenas and crossing totals.
	arenas []arena
	crossw []uint64
	// Assembly buffers.
	segs   []segment
	counts []int32
}

type advectScratchKey struct{}

// leaseScratch leases (or builds) scratch sized for n particles on a
// pool with the given worker count.
func leaseScratch(pool *par.Pool, n, workers int) *advectScratch {
	sc, _ := pool.GetScratch(advectScratchKey{}).(*advectScratch)
	if sc == nil {
		sc = &advectScratch{}
	}
	if cap(sc.px) < n {
		sc.px = make([]float64, n)
		sc.py = make([]float64, n)
		sc.pz = make([]float64, n)
		sc.cell = make([]int32, n)
		sc.pid = make([]int32, n)
		sc.dead = make([]bool, n)
		sc.h = make([]float64, n)
		sc.arc = make([]float64, n)
		sc.accepted = make([]int32, n)
		sc.counts = make([]int32, n)
	}
	sc.px, sc.py, sc.pz = sc.px[:n], sc.py[:n], sc.pz[:n]
	sc.cell, sc.pid, sc.dead = sc.cell[:n], sc.pid[:n], sc.dead[:n]
	sc.h, sc.arc, sc.accepted = sc.h[:n], sc.arc[:n], sc.accepted[:n]
	sc.counts = sc.counts[:n]
	if len(sc.arenas) < workers {
		sc.arenas = make([]arena, workers)
		sc.crossw = make([]uint64, workers)
	}
	sc.arenas = sc.arenas[:workers]
	sc.crossw = sc.crossw[:workers]
	for w := range sc.arenas {
		sc.arenas[w].pts = sc.arenas[w].pts[:0]
		sc.arenas[w].spd = sc.arenas[w].spd[:0]
		sc.arenas[w].segs = sc.arenas[w].segs[:0]
		sc.crossw[w] = 0
	}
	sc.segs = sc.segs[:0]
	return sc
}

// compact removes dead slots from the first n SoA entries, preserving
// order, and returns the surviving count.
func (sc *advectScratch) compact(n int, adaptive bool) int {
	w := 0
	for i := 0; i < n; i++ {
		if sc.dead[i] {
			continue
		}
		if w != i {
			sc.px[w], sc.py[w], sc.pz[w] = sc.px[i], sc.py[i], sc.pz[i]
			sc.cell[w] = sc.cell[i]
			sc.pid[w] = sc.pid[i]
			if adaptive {
				sc.h[w] = sc.h[i]
				sc.arc[w] = sc.arc[i]
				sc.accepted[w] = sc.accepted[i]
			}
		}
		sc.dead[w] = false
		w++
	}
	return w
}

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	if g.PointVector(f.opts.Vector) == nil {
		return nil, missingVectorErr(f.opts.Vector)
	}
	starts := SeedPoints(g.Bounds(), f.opts.NumParticles)
	return f.run(g, ex, starts), nil
}

// run integrates an explicit seed list through the sampler-based hot
// path (tests inject crafted seeds through this).
func (f *Filter) run(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) *viz.Result {
	proto, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		// Caller checked the field; keep the reference behavior of an
		// empty result rather than a panic if it races away.
		return &viz.Result{Profile: ex.Drain(), Elements: int64(g.NumCells()), Lines: mesh.NewLineSet()}
	}
	nP := len(starts)
	workers := ex.Pool.Workers()
	sc := leaseScratch(ex.Pool, nP, workers)
	// Out-of-domain seeds are rejected up front by the validation
	// predicate shared with RunReference and dist.Advect; round 0
	// skips them and the first compaction drops them.
	RejectSeeds(g, starts, sc.dead)
	for i, p := range starts {
		sc.px[i], sc.py[i], sc.pz[i] = p[0], p[1], p[2]
		sc.cell[i] = -1
		sc.pid[i] = int32(i)
		sc.h[i] = f.opts.StepLength
		sc.arc[i] = 0
		sc.accepted[i] = 0
	}

	if f.opts.Adaptive {
		f.roundsAdaptive(g, ex, proto, sc, nP)
	} else {
		f.roundsFixed(g, ex, proto, sc, nP)
	}

	out, totalSteps := assemble(sc, nP)
	var totalCrossings uint64
	for _, c := range sc.crossw {
		totalCrossings += c
	}
	// The footprint is the field data along the particle paths (capped at
	// the full field: paths overlap) plus the streamline output. Because
	// seed count, step length, and step count are size-independent, so is
	// this working set — the paper's Fig. 6 flat-IPC mechanism.
	pathBytes := totalCrossings * 96
	if fieldBytes := uint64(g.NumPoints()) * 24; pathBytes > fieldBytes {
		pathBytes = fieldBytes
	}
	ex.Rec(0).WorkingSet(pathBytes + uint64(totalSteps)*32)
	ex.Pool.PutScratch(advectScratchKey{}, sc)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Lines:    out,
	}
}

// roundsFixed advances the compacted active list through fixed-step RK4
// rounds. Per-sample and per-step operation accounting matches
// runReference exactly; only the launch count differs (one per round).
func (f *Filter) roundsFixed(g *mesh.UniformGrid, ex *viz.Exec, proto *mesh.VectorSampler, sc *advectScratch, nP int) {
	b := g.Bounds()
	h := f.opts.StepLength
	nAct := nP
	stepsDone := 0
	for round := int32(0); stepsDone < f.opts.NumSteps && nAct > 0; round++ {
		k := stepsPerRound
		if stepsDone+k > f.opts.NumSteps {
			k = f.opts.NumSteps - stepsDone
		}
		first := round == 0
		ex.Rec(0).Launch()
		ex.Pool.For(nAct, par.GrainFor(nAct, ex.Pool.Workers()), func(lo, hi, worker int) {
			rec := ex.Rec(worker)
			ar := &sc.arenas[worker]
			s := *proto
			var samples, crossings, stepsTaken uint64
			for si := lo; si < hi; si++ {
				p := mesh.Vec3{sc.px[si], sc.py[si], sc.pz[si]}
				lastCell := int(sc.cell[si])
				off := int32(len(ar.pts))
				if first {
					if sc.dead[si] {
						continue // out-of-domain seed (RejectSeeds)
					}
					v0, _ := s.Sample(p)
					ar.pts = append(ar.pts, p)
					ar.spd = append(ar.spd, v0.Norm())
				}
				for t := 0; t < k; t++ {
					// RK4 with four field samples, in the reference's
					// exact arithmetic order (the shared kernel).
					next, v0, ok := RK4Step(&s, p, h)
					samples += 4
					if !ok {
						sc.dead[si] = true
						break // left the bounding box: terminate
					}
					p = next
					if !b.Contains(p) {
						sc.dead[si] = true
						break
					}
					stepsTaken++
					ar.pts = append(ar.pts, p)
					ar.spd = append(ar.spd, v0.Norm())
					if c, inGrid := s.Cell(p); inGrid && c != lastCell {
						crossings++
						lastCell = c
					}
				}
				if n := int32(len(ar.pts)) - off; n > 0 {
					ar.segs = append(ar.segs, segment{pid: sc.pid[si], seq: round, wk: int32(worker), off: off, n: n})
				}
				sc.px[si], sc.py[si], sc.pz[si] = p[0], p[1], p[2]
				sc.cell[si] = int32(lastCell)
			}
			// Same per-sample demand as the reference integrator: three
			// trilinear component reconstructions (~90 flops) per sample
			// plus the step combination, cache-hot 8-corner gathers
			// (resident), fresh lines per cell crossing.
			rec.Flops(samples*90 + stepsTaken*30)
			rec.IntOps(samples * 24)
			rec.Branches(samples * 6)
			rec.Loads(samples*192, ops.Resident)
			rec.LoadsN(crossings, 192, ops.Random)
			rec.Stores(stepsTaken*32, ops.Stream)
			sc.crossw[worker] += crossings
		})
		stepsDone += k
		nAct = sc.compact(nAct, false)
	}
}

// roundsAdaptive advances the compacted active list through rounds of up
// to stepsPerRound accepted Bogacki–Shampine steps, with per-particle
// step size and arc length carried in the SoA state. Accounting matches
// runReference's adaptive branch: samples at 90 flops, accepted points at
// 30, rejected trials at 20 controller flops, and the arc-length crossing
// estimate (crossings = arc/cellDiag + 1 per particle at retirement).
func (f *Filter) roundsAdaptive(g *mesh.UniformGrid, ex *viz.Exec, proto *mesh.VectorSampler, sc *advectScratch, nP int) {
	b := g.Bounds()
	h0 := f.opts.StepLength
	tol := f.opts.Tolerance
	hMin, hMax := AdaptiveStepBounds(h0)
	maxSteps := f.opts.NumSteps
	maxLen := float64(f.opts.NumSteps) * h0
	cellDiag := g.Spacing.Norm()
	nAct := nP
	for round := int32(0); nAct > 0; round++ {
		first := round == 0
		ex.Rec(0).Launch()
		ex.Pool.For(nAct, par.GrainFor(nAct, ex.Pool.Workers()), func(lo, hi, worker int) {
			rec := ex.Rec(worker)
			ar := &sc.arenas[worker]
			s := *proto
			var samples, rejects, crossings, stepsTaken uint64
			for si := lo; si < hi; si++ {
				p := mesh.Vec3{sc.px[si], sc.py[si], sc.pz[si]}
				hh := sc.h[si]
				arc := sc.arc[si]
				acc := int(sc.accepted[si])
				off := int32(len(ar.pts))
				retired := false
				if first {
					if sc.dead[si] {
						// Out-of-domain seed (RejectSeeds): the arc-length
						// estimate still charges one crossing, as the
						// reference does.
						crossings++
						continue
					}
					v, _ := s.Sample(p)
					ar.pts = append(ar.pts, p)
					ar.spd = append(ar.spd, v.Norm())
					stepsTaken++
				}
			steps:
				for t := 0; t < stepsPerRound; t++ {
					if acc >= maxSteps || arc >= maxLen {
						retired = true
						break
					}
					for {
						next, v0, errEst, ok := BS23Step(&s, p, hh)
						samples += 4
						if !ok {
							retired = true // left the domain
							break steps
						}
						if errEst <= tol || hh <= hMin {
							d := next.Sub(p).Norm()
							p = next
							if !b.Contains(p) {
								retired = true
								break steps
							}
							arc += d
							ar.pts = append(ar.pts, p)
							ar.spd = append(ar.spd, v0.Norm())
							stepsTaken++
							acc++
							// Grow the step for the next round.
							hh = StepController(hh, errEst, tol, hMin, hMax)
							break
						}
						rejects++
						hh = StepController(hh, errEst, tol, hMin, hMax)
					}
				}
				if retired {
					crossings += uint64(arc/cellDiag) + 1
					sc.dead[si] = true
				}
				if n := int32(len(ar.pts)) - off; n > 0 {
					ar.segs = append(ar.segs, segment{pid: sc.pid[si], seq: round, wk: int32(worker), off: off, n: n})
				}
				sc.px[si], sc.py[si], sc.pz[si] = p[0], p[1], p[2]
				sc.h[si] = hh
				sc.arc[si] = arc
				sc.accepted[si] = int32(acc)
			}
			rec.Flops(samples*90 + stepsTaken*30 + rejects*20)
			rec.IntOps(samples * 24)
			rec.Branches(samples * 6)
			rec.Loads(samples*192, ops.Resident)
			rec.LoadsN(crossings, 192, ops.Random)
			rec.Stores(stepsTaken*32, ops.Stream)
			sc.crossw[worker] += crossings
		})
		nAct = sc.compact(nAct, true)
	}
}

// assemble stitches the per-worker arena segments into one LineSet in
// particle order, skipping particles with fewer than two points (the
// reference's qualifying rule), and returns the total qualifying point
// count. The output slices are sized exactly, so assembly allocates only
// the LineSet itself.
func assemble(sc *advectScratch, nP int) (*mesh.LineSet, int) {
	segs := sc.segs[:0]
	for w := range sc.arenas {
		segs = append(segs, sc.arenas[w].segs...)
	}
	sort.Slice(segs, func(a, b int) bool {
		if segs[a].pid != segs[b].pid {
			return segs[a].pid < segs[b].pid
		}
		return segs[a].seq < segs[b].seq
	})
	sc.segs = segs
	counts := sc.counts[:nP]
	for i := range counts {
		counts[i] = 0
	}
	nLines := 0
	total := 0
	for _, sg := range segs {
		counts[sg.pid] += sg.n
	}
	for _, c := range counts {
		if c >= 2 {
			total += int(c)
			nLines++
		}
	}
	out := &mesh.LineSet{
		Points:  make([]mesh.Vec3, 0, total),
		Scalars: make([]float64, 0, total),
		Offsets: make([]int32, 1, nLines+1),
	}
	for i := 0; i < len(segs); {
		j := i
		pid := segs[i].pid
		for j < len(segs) && segs[j].pid == pid {
			j++
		}
		if counts[pid] >= 2 {
			for _, sg := range segs[i:j] {
				ar := &sc.arenas[sg.wk]
				out.Points = append(out.Points, ar.pts[sg.off:sg.off+sg.n]...)
				out.Scalars = append(out.Scalars, ar.spd[sg.off:sg.off+sg.n]...)
			}
			out.Offsets = append(out.Offsets, int32(len(out.Points)))
		}
		i = j
	}
	return out, total
}
