package mesh

import (
	"math"
	"testing"
)

func unitBox() Bounds {
	return Bounds{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
}

func TestSafeInvDir(t *testing.T) {
	inv := SafeInvDir(Vec3{2, -4, 0})
	if inv[0] != 0.5 || inv[1] != -0.25 || !math.IsInf(inv[2], 1) {
		t.Errorf("SafeInvDir = %v", inv)
	}
	// Negative zero must also map to +Inf, not -Inf.
	negZero := math.Copysign(0, -1)
	if inv := SafeInvDir(Vec3{negZero, 1, 1}); !math.IsInf(inv[0], 1) {
		t.Errorf("SafeInvDir(-0) = %v", inv[0])
	}
}

func TestRayBoxBasicOverlap(t *testing.T) {
	b := unitBox()
	t0, t1, ok := RayBox(Vec3{0.5, 0.5, -1}, Vec3{0, 0, 1}, b)
	if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("RayBox = %v %v %v", t0, t1, ok)
	}
	if _, _, ok := RayBox(Vec3{2, 2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("missing ray reported overlap")
	}
	// Ray starting inside clips t0 to 0.
	t0, _, ok = RayBox(Vec3{0.5, 0.5, 0.5}, Vec3{0, 0, 1}, b)
	if !ok || t0 != 0 {
		t.Errorf("inside ray t0 = %v, ok = %v", t0, ok)
	}
	// Diagonal ray through opposite corners.
	d := Vec3{1, 1, 1}.Normalize()
	t0, t1, ok = RayBox(Vec3{-1, -1, -1}, d, b)
	if !ok || t1 <= t0 {
		t.Errorf("diagonal ray = %v %v %v", t0, t1, ok)
	}
}

func TestRayBoxAxisParallel(t *testing.T) {
	b := unitBox()
	// Parallel and outside the slab: miss on both sides.
	if _, _, ok := RayBox(Vec3{0.5, 2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("parallel ray above the box reported overlap")
	}
	if _, _, ok := RayBox(Vec3{0.5, -2, -1}, Vec3{0, 0, 1}, b); ok {
		t.Error("parallel ray below the box reported overlap")
	}
	// Parallel and inside the slab: hit with the other axes' clipping.
	t0, t1, ok := RayBox(Vec3{0.25, 0.25, -1}, Vec3{0, 0, 1}, b)
	if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("parallel inside ray = %v %v %v", t0, t1, ok)
	}
}

// The 0·Inf = NaN corner: an axis-parallel ray whose origin lies exactly
// on a slab face must count as inside the slab, not poison the interval.
func TestRayBoxOnFaceOrigin(t *testing.T) {
	b := unitBox()
	for _, orig := range []Vec3{{0, 0.5, -1}, {1, 0.5, -1}} {
		t0, t1, ok := RayBox(orig, Vec3{0, 0, 1}, b)
		if !ok || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
			t.Errorf("on-face origin %v: got %v %v %v", orig, t0, t1, ok)
		}
	}
	// Both coordinates on faces, marching along the remaining axis.
	t0, t1, ok := RayBox(Vec3{0, 1, 0.5}, Vec3{0, 0, 1}, b)
	if !ok || t0 != 0 || math.Abs(t1-0.5) > 1e-12 {
		t.Errorf("edge origin: got %v %v %v", t0, t1, ok)
	}
}

func TestRayBoxInvClipsExistingInterval(t *testing.T) {
	b := unitBox()
	orig := Vec3{0.5, 0.5, -1}
	dir := Vec3{0, 0, 1}
	inv := SafeInvDir(dir)
	// Interval already tighter than the box on one side.
	t0, t1, ok := RayBoxInv(orig, inv, b, 1.5, math.Inf(1))
	if !ok || t0 != 1.5 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("clip lo: %v %v %v", t0, t1, ok)
	}
	// tBest-style far clip excludes the box entirely.
	if _, _, ok := RayBoxInv(orig, inv, b, 0, 0.5); ok {
		t.Error("box beyond tBest reported overlap")
	}
}

func TestRayBoxMatchesContainsForRandomRays(t *testing.T) {
	b := Bounds{Lo: Vec3{-0.3, 0.1, -2}, Hi: Vec3{1.5, 0.9, -0.5}}
	// A deterministic lattice of rays; every reported interval midpoint
	// must lie inside the box.
	for i := 0; i < 200; i++ {
		fi := float64(i)
		orig := Vec3{math.Sin(fi) * 3, math.Cos(fi*1.7) * 3, math.Sin(fi*0.3) * 4}
		dir := Vec3{math.Cos(fi * 0.9), math.Sin(fi * 1.3), math.Cos(fi * 2.1)}.Normalize()
		t0, t1, ok := RayBox(orig, dir, b)
		if !ok {
			continue
		}
		mid := orig.Add(dir.Scale((t0 + t1) / 2))
		const eps = 1e-9
		for a := 0; a < 3; a++ {
			if mid[a] < b.Lo[a]-eps || mid[a] > b.Hi[a]+eps {
				t.Fatalf("ray %d: interval midpoint %v outside box", i, mid)
			}
		}
	}
}
