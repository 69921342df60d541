package advect

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// uniformFlow builds a grid with constant velocity (1, 0, 0).
func uniformFlow(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	for i := range v {
		v[i] = mesh.Vec3{1, 0, 0}
	}
	return g
}

// rotationFlow builds a grid with a solid-body rotation about the center
// z axis.
func rotationFlow(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		v[id] = mesh.Vec3{-(p[1] - 0.5), p[0] - 0.5, 0}
	}
	return g
}

func TestStreamlinesFollowUniformFlow(t *testing.T) {
	g := uniformFlow(t, 8)
	f := New(Options{NumParticles: 27, NumSteps: 2000, StepLength: 0.002})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines.NumLines() == 0 {
		t.Fatal("no streamlines")
	}
	if err := res.Lines.Validate(); err != nil {
		t.Fatalf("invalid line set: %v", err)
	}
	for li := 0; li < res.Lines.NumLines(); li++ {
		lo, hi := res.Lines.Line(li)
		first := res.Lines.Points[lo]
		last := res.Lines.Points[hi-1]
		// Straight lines in +x: y and z constant.
		if math.Abs(first[1]-last[1]) > 1e-9 || math.Abs(first[2]-last[2]) > 1e-9 {
			t.Fatalf("streamline %d curved in uniform flow: %v -> %v", li, first, last)
		}
		if last[0] <= first[0] {
			t.Fatalf("streamline %d did not advance in +x", li)
		}
		// 2000 steps of 0.002 = 4 units: every particle must exit at
		// the x=1 face (terminate near the boundary).
		if last[0] < 1.0-0.01 {
			t.Fatalf("streamline %d stopped at x=%v, want near 1", li, last[0])
		}
	}
}

func TestRK4CirclesAreAccurate(t *testing.T) {
	g := rotationFlow(t, 16)
	f := New(Options{NumParticles: 8, NumSteps: 3000, StepLength: 0.002})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	c := mesh.Vec3{0.5, 0.5, 0}
	checked := 0
	for li := 0; li < res.Lines.NumLines(); li++ {
		lo, hi := res.Lines.Line(li)
		first := res.Lines.Points[lo]
		r0 := math.Hypot(first[0]-0.5, first[1]-0.5)
		if r0 < 0.05 || r0 > 0.4 {
			continue // too close to the center or the walls
		}
		checked++
		for i := lo; i < hi; i++ {
			p := res.Lines.Points[i]
			r := math.Hypot(p[0]-c[0], p[1]-c[1])
			if math.Abs(r-r0) > 0.01*r0+1e-6 {
				t.Fatalf("line %d: radius drifted from %v to %v (RK4 should hold circles)", li, r0, r)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no streamline qualified for the circle check")
	}
}

func TestParticlesTerminateOutsideBounds(t *testing.T) {
	g := uniformFlow(t, 6)
	f := New(Options{NumParticles: 8, NumSteps: 100000, StepLength: 0.01})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	b := g.Bounds()
	for _, p := range res.Lines.Points {
		if !b.Contains(p) {
			t.Fatalf("streamline point %v outside bounds", p)
		}
	}
	// With step 0.01, 100000 steps would travel 1000 units; every line
	// must be far shorter (early termination).
	for li := 0; li < res.Lines.NumLines(); li++ {
		lo, hi := res.Lines.Line(li)
		if hi-lo > 200 {
			t.Fatalf("streamline %d has %d points; termination failed", li, hi-lo)
		}
	}
}

func TestAdvectMissingVector(t *testing.T) {
	g, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}).Run(g, viz.NewExec(par.NewPool(1))); err == nil {
		t.Error("missing vector field accepted")
	}
}

func TestAdvectDeterministic(t *testing.T) {
	f := New(Options{NumParticles: 16, NumSteps: 200, StepLength: 0.002})
	r1, err := f.Run(rotationFlow(t, 8), viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := f.Run(rotationFlow(t, 8), viz.NewExec(par.NewPool(4)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Lines.TotalPoints() != r4.Lines.TotalPoints() {
		t.Fatalf("points differ: %d vs %d", r1.Lines.TotalPoints(), r4.Lines.TotalPoints())
	}
	for i := range r1.Lines.Points {
		if r1.Lines.Points[i] != r4.Lines.Points[i] {
			t.Fatalf("point %d differs across worker counts", i)
		}
	}
}

func TestAdvectProfileComputeBound(t *testing.T) {
	g := rotationFlow(t, 8)
	res, err := New(Options{NumParticles: 64, NumSteps: 500}).Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	// RK4 is flop-rich: flops comfortably exceed every op class, and
	// loads are predominantly cache-resident (ops.Resident == 3).
	if p.Flops < p.IntOps || p.Flops < p.Branches {
		t.Errorf("advect should be flop-dominated: %+v", p)
	}
	if p.LoadBytes[3] == 0 {
		t.Error("no resident loads recorded")
	}
	if p.LoadBytes[3] < p.LoadBytes[0]+p.LoadBytes[1]+p.LoadBytes[2] {
		t.Errorf("loads should be resident-dominated: %v", p.LoadBytes)
	}
	// Footprint is path-limited: at most the vector field plus the
	// streamline output.
	maxWS := uint64(g.NumPoints())*24 + uint64(res.Lines.TotalPoints())*32
	if p.WorkingSetBytes > maxWS {
		t.Errorf("working set %d exceeds field+output bound %d", p.WorkingSetBytes, maxWS)
	}
}

func TestSeedsDeterministicAndInBounds(t *testing.T) {
	b := mesh.Bounds{Lo: mesh.Vec3{0, 0, 0}, Hi: mesh.Vec3{1, 1, 1}}
	s1 := SeedPoints(b, 100)
	s2 := SeedPoints(b, 100)
	if len(s1) != 100 {
		t.Fatalf("seeds = %d, want 100", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("seeds not deterministic")
		}
		if !b.Contains(s1[i]) {
			t.Fatalf("seed %v outside bounds", s1[i])
		}
	}
}

func TestAdaptiveCirclesHoldRadius(t *testing.T) {
	g := rotationFlow(t, 16)
	f := New(Options{NumParticles: 8, NumSteps: 3000, StepLength: 0.002, Adaptive: true, Tolerance: 1e-7})
	res, err := f.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for li := 0; li < res.Lines.NumLines(); li++ {
		lo, hi := res.Lines.Line(li)
		first := res.Lines.Points[lo]
		r0 := math.Hypot(first[0]-0.5, first[1]-0.5)
		if r0 < 0.05 || r0 > 0.4 {
			continue
		}
		checked++
		for i := lo; i < hi; i++ {
			p := res.Lines.Points[i]
			r := math.Hypot(p[0]-0.5, p[1]-0.5)
			if math.Abs(r-r0) > 0.02*r0+1e-6 {
				t.Fatalf("line %d: adaptive radius drifted %v -> %v", li, r0, r)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no qualifying streamline")
	}
	if err := res.Lines.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveGrowsStepsInSmoothFlow(t *testing.T) {
	// Uniform flow is perfectly smooth: the controller should grow the
	// step far beyond the initial value, covering the domain in far
	// fewer accepted steps than the fixed-step integrator.
	g := uniformFlow(t, 8)
	fixed := New(Options{NumParticles: 8, NumSteps: 2000, StepLength: 0.002})
	adaptive := New(Options{NumParticles: 8, NumSteps: 2000, StepLength: 0.002, Adaptive: true, Tolerance: 1e-5})
	rf, err := fixed.Run(uniformFlow(t, 8), viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := adaptive.Run(g, viz.NewExec(par.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Lines.TotalPoints() >= rf.Lines.TotalPoints()/4 {
		t.Errorf("adaptive used %d points vs fixed %d; step growth absent",
			ra.Lines.TotalPoints(), rf.Lines.TotalPoints())
	}
	// Both reach the far wall.
	for li := 0; li < ra.Lines.NumLines(); li++ {
		lo, hi := ra.Lines.Line(li)
		_ = lo
		if ra.Lines.Points[hi-1][0] < 0.9 {
			t.Fatalf("adaptive streamline %d stopped early at %v", li, ra.Lines.Points[hi-1])
		}
	}
}

func TestAdaptiveTerminatesOutsideBounds(t *testing.T) {
	g := uniformFlow(t, 6)
	f := New(Options{NumParticles: 4, NumSteps: 100000, StepLength: 0.01, Adaptive: true})
	res, err := f.Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	b := g.Bounds()
	for _, p := range res.Lines.Points {
		if !b.Contains(p) {
			t.Fatalf("adaptive point %v outside bounds", p)
		}
	}
}
