package raytrace

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// BVH is a bounding-volume hierarchy over the triangles of a TriMesh —
// the "spatial acceleration structure" the paper's ray tracer builds each
// cycle before tracing. The production build (BuildBVH) is an
// allocation-light binned-SAH construction parallelized over subtrees.
// The original sort-median build it replaced lives in the package tests
// (BuildBVHReference), as the golden oracle and the build benchmark's
// baseline.
type BVH struct {
	nodes []bvhNode
	// order holds triangle indices grouped by leaf.
	order []int32
}

type bvhNode struct {
	bounds      mesh.Bounds
	left, right int32 // children when num == 0
	start, num  int32 // leaf triangle range in order when num > 0
	// axis is the split axis of an interior node; traversal uses the ray
	// direction's sign on it to visit the nearer child first.
	axis uint8
}

// maxLeafTris is the leaf size; small leaves favor traversal flops over
// triangle tests, like production tracers.
const maxLeafTris = 4

// sahBins is the bin count of the binned-SAH sweep. Sixteen bins keep the
// per-node pass O(n) with fixed stack-allocated state and land within a
// few percent of a full SAH sweep.
const sahBins = 16

// BuildBVH constructs the hierarchy on the default worker pool. It
// returns nil for an empty mesh.
func BuildBVH(m *mesh.TriMesh) *BVH {
	return BuildBVHWith(m, par.Default())
}

// BuildBVHWith constructs the hierarchy: centroids and triangle boxes are
// computed in parallel, the top of the tree is split serially until
// enough independent subtrees exist, and the subtrees build concurrently
// on pool, each into preallocated node storage (no per-node sorting, no
// per-level allocation).
func BuildBVHWith(m *mesh.TriMesh, pool *par.Pool) *BVH {
	n := m.NumTris()
	if n == 0 {
		return nil
	}
	if pool == nil {
		pool = par.Default()
	}
	b := &BVH{order: make([]int32, n)}
	bd := &bvhBuilder{
		order: b.order,
		cents: make([]mesh.Vec3, n),
		boxes: make([]mesh.Bounds, n),
		bins:  make([]uint8, n),
	}
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			tr := m.Tris[i]
			p0, p1, p2 := m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]]
			bb := mesh.EmptyBounds()
			bb.Extend(p0)
			bb.Extend(p1)
			bb.Extend(p2)
			bd.boxes[i] = bb
			bd.cents[i] = p0.Add(p1).Add(p2).Scale(1.0 / 3)
			bd.order[i] = int32(i)
		}
	})

	// Subtrees at or below this size become parallel jobs; the serial
	// top-of-tree expansion above them is logarithmically shallow.
	grain := n / (4 * pool.Workers())
	if grain < 2048 {
		grain = 2048
	}
	if n <= grain {
		b.nodes = make([]bvhNode, 0, 2*n)
		b.nodes, _ = bd.build(b.nodes, 0, n)
		return b
	}

	type subtree struct {
		lo, hi int
		slot   int32 // placeholder node index in b.nodes
	}
	var jobs []subtree
	b.nodes = make([]bvhNode, 0, 2*n)
	var expand func(lo, hi int) int32
	expand = func(lo, hi int) int32 {
		if hi-lo <= grain {
			// Placeholder: bounds filled by the job's subtree root.
			idx := int32(len(b.nodes))
			b.nodes = append(b.nodes, bvhNode{})
			jobs = append(jobs, subtree{lo: lo, hi: hi, slot: idx})
			return idx
		}
		idx := int32(len(b.nodes))
		bb, cb := bd.rangeBounds(lo, hi)
		b.nodes = append(b.nodes, bvhNode{bounds: bb})
		mid, axis := bd.split(lo, hi, cb)
		b.nodes[idx].axis = axis
		left := expand(lo, mid)
		right := expand(mid, hi)
		b.nodes[idx].left = left
		b.nodes[idx].right = right
		return idx
	}
	expand(0, n)

	// Build every subtree concurrently into its own preallocated storage.
	local := make([][]bvhNode, len(jobs))
	pool.ForEach(len(jobs), func(i, _ int) {
		j := jobs[i]
		nodes := make([]bvhNode, 0, 2*(j.hi-j.lo))
		nodes, _ = bd.build(nodes, j.lo, j.hi)
		local[i] = nodes
	})

	// Stitch: local index 0 replaces the placeholder; local c > 0 lands
	// at base+c-1. Child links inside each subtree shift accordingly.
	for i, j := range jobs {
		nodes := local[i]
		base := int32(len(b.nodes))
		remap := func(c int32) int32 {
			if c == 0 {
				return j.slot
			}
			return base + c - 1
		}
		root := nodes[0]
		if root.num == 0 {
			root.left = remap(root.left)
			root.right = remap(root.right)
		}
		b.nodes[j.slot] = root
		for _, nd := range nodes[1:] {
			if nd.num == 0 {
				nd.left = remap(nd.left)
				nd.right = remap(nd.right)
			}
			b.nodes = append(b.nodes, nd)
		}
	}
	return b
}

// bvhBuilder carries the shared immutable centroid/box arrays, the
// triangle ordering being permuted in place, and the per-triangle bin
// scratch. Disjoint [lo, hi) ranges touch disjoint slices of every
// per-triangle array, so subtree jobs need no locking.
type bvhBuilder struct {
	order []int32
	cents []mesh.Vec3
	boxes []mesh.Bounds
	// bins[ti] is the SAH bin of triangle ti at the node currently being
	// split (written by the binning pass, read by the partition pass).
	bins []uint8
}

// rangeBounds computes the geometry bounds and the centroid bounds of
// order[lo:hi] in one fused pass. The comparisons are explicit rather
// than Bounds.Union/Extend: this is the single hottest loop of the build
// (it runs once per node over the node's whole range) and the math.Min
// calls inside the Vec3 helpers do not inline.
func (bd *bvhBuilder) rangeBounds(lo, hi int) (bb, cb mesh.Bounds) {
	bb = mesh.EmptyBounds()
	cb = mesh.EmptyBounds()
	for _, ti := range bd.order[lo:hi] {
		bx := &bd.boxes[ti]
		c := &bd.cents[ti]
		for a := 0; a < 3; a++ {
			if bx.Lo[a] < bb.Lo[a] {
				bb.Lo[a] = bx.Lo[a]
			}
			if bx.Hi[a] > bb.Hi[a] {
				bb.Hi[a] = bx.Hi[a]
			}
			if c[a] < cb.Lo[a] {
				cb.Lo[a] = c[a]
			}
			if c[a] > cb.Hi[a] {
				cb.Hi[a] = c[a]
			}
		}
	}
	return bb, cb
}

// build recursively constructs the subtree over order[lo:hi] into nodes,
// returning the extended slice and the subtree root's index.
func (bd *bvhBuilder) build(nodes []bvhNode, lo, hi int) ([]bvhNode, int32) {
	idx := int32(len(nodes))
	bb, cb := bd.rangeBounds(lo, hi)
	nodes = append(nodes, bvhNode{bounds: bb})
	if hi-lo <= maxLeafTris {
		nodes[idx].start = int32(lo)
		nodes[idx].num = int32(hi - lo)
		return nodes, idx
	}
	mid, axis := bd.split(lo, hi, cb)
	nodes[idx].axis = axis
	var left, right int32
	nodes, left = bd.build(nodes, lo, mid)
	nodes, right = bd.build(nodes, mid, hi)
	nodes[idx].left = left
	nodes[idx].right = right
	return nodes, idx
}

func surfaceArea(b mesh.Bounds) float64 {
	s := b.Size()
	return 2 * (s[0]*s[1] + s[1]*s[2] + s[2]*s[0])
}

// split partitions order[lo:hi] about a binned-SAH split on the longest
// centroid-bounds axis (cb, computed by the caller's bounds pass) and
// returns the partition point and axis. The whole pass is O(hi-lo) with
// fixed stack state: one binning sweep, one 16-entry cost sweep, one
// in-place two-pointer partition over the cached per-triangle bins.
// Degenerate spreads (all centroids in one bin) fall back to an even
// split so progress is guaranteed.
func (bd *bvhBuilder) split(lo, hi int, cb mesh.Bounds) (int, uint8) {
	size := cb.Size()
	axis := 0
	if size[1] > size[axis] {
		axis = 1
	}
	if size[2] > size[axis] {
		axis = 2
	}
	extent := size[axis]
	if !(extent > 0) {
		return lo + (hi-lo)/2, uint8(axis)
	}
	scale := sahBins / extent
	origin := cb.Lo[axis]
	var cnt [sahBins]int
	var bb [sahBins]mesh.Bounds
	for i := range bb {
		bb[i] = mesh.EmptyBounds()
	}
	for _, ti := range bd.order[lo:hi] {
		bin := int((bd.cents[ti][axis] - origin) * scale)
		if bin >= sahBins {
			bin = sahBins - 1
		}
		bd.bins[ti] = uint8(bin)
		cnt[bin]++
		bx := &bd.boxes[ti]
		nb := &bb[bin]
		for a := 0; a < 3; a++ {
			if bx.Lo[a] < nb.Lo[a] {
				nb.Lo[a] = bx.Lo[a]
			}
			if bx.Hi[a] > nb.Hi[a] {
				nb.Hi[a] = bx.Hi[a]
			}
		}
	}
	// Right-to-left suffix areas, then a left-to-right sweep of the SAH
	// cost at each bin boundary.
	var sufArea [sahBins]float64
	var sufCnt [sahBins]int
	acc := mesh.EmptyBounds()
	c := 0
	for i := sahBins - 1; i >= 1; i-- {
		acc.Union(bb[i])
		c += cnt[i]
		sufArea[i] = surfaceArea(acc)
		sufCnt[i] = c
	}
	bestCost := math.Inf(1)
	bestSplit := -1
	accL := mesh.EmptyBounds()
	cl := 0
	for s := 1; s < sahBins; s++ {
		accL.Union(bb[s-1])
		cl += cnt[s-1]
		if cl == 0 || sufCnt[s] == 0 {
			continue
		}
		cost := float64(cl)*surfaceArea(accL) + float64(sufCnt[s])*sufArea[s]
		if cost < bestCost {
			bestCost = cost
			bestSplit = s
		}
	}
	if bestSplit < 0 {
		return lo + (hi-lo)/2, uint8(axis)
	}
	seg := bd.order
	bs := uint8(bestSplit)
	i, j := lo, hi-1
	for i <= j {
		for i <= j && bd.bins[seg[i]] < bs {
			i++
		}
		for i <= j && bd.bins[seg[j]] >= bs {
			j--
		}
		if i < j {
			seg[i], seg[j] = seg[j], seg[i]
			i++
			j--
		}
	}
	if i <= lo || i >= hi {
		return lo + (hi-lo)/2, uint8(axis)
	}
	return i, uint8(axis)
}

// NumNodes returns the node count (for size accounting).
func (b *BVH) NumNodes() int { return len(b.nodes) }

// TraverseStats counts the work one ray performed, feeding the operation
// recorders.
type TraverseStats struct {
	NodesVisited int
	TriTests     int
}

// triIntersect is the Möller–Trumbore ray/triangle test. It returns the
// hit parameter and barycentrics, or ok=false.
func triIntersect(orig, dir, p0, p1, p2 mesh.Vec3) (t, u, v float64, ok bool) {
	e1 := p1.Sub(p0)
	e2 := p2.Sub(p0)
	pvec := dir.Cross(e2)
	det := e1.Dot(pvec)
	if math.Abs(det) < 1e-15 {
		return 0, 0, 0, false
	}
	inv := 1 / det
	tvec := orig.Sub(p0)
	u = tvec.Dot(pvec) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	qvec := tvec.Cross(e1)
	v = dir.Dot(qvec) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	t = e2.Dot(qvec) * inv
	if t <= 1e-12 {
		return 0, 0, 0, false
	}
	return t, u, v, true
}

// Hit describes the nearest intersection of a ray with the mesh.
type Hit struct {
	T    float64
	Tri  int32
	U, V float64
}

// closer reports whether a hit at (t, ti) beats best. Ties on t resolve
// to the lower triangle index, which makes the nearest-hit record
// independent of traversal order: brute force, the reference BVH, and
// the ordered BVH all return bit-identical hits.
func closer(t float64, ti int32, best Hit) bool {
	return t < best.T || (t == best.T && ti < best.Tri)
}

// Intersect finds the nearest triangle hit by the ray, accumulating
// traversal statistics into stats (which may be nil). Traversal is
// front-to-back: interior nodes descend into the child on the ray's
// entering side of the split axis first, so the nearest hit tightens the
// ray-slab early-out (boxes beyond the current best are culled) as early
// as possible.
func (b *BVH) Intersect(m *mesh.TriMesh, orig, dir mesh.Vec3, stats *TraverseStats) (Hit, bool) {
	if b == nil || len(b.nodes) == 0 {
		return Hit{}, false
	}
	invDir := mesh.SafeInvDir(dir)
	best := Hit{T: math.Inf(1), Tri: -1}
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	nodes, tris := 0, 0
	for sp > 0 {
		sp--
		node := &b.nodes[stack[sp]]
		nodes++
		if _, _, ok := mesh.RayBoxInv(orig, invDir, node.bounds, 0, best.T); !ok {
			continue
		}
		if node.num > 0 {
			for _, ti := range b.order[node.start : node.start+node.num] {
				tris++
				tr := m.Tris[ti]
				t, u, v, ok := triIntersect(orig, dir, m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]])
				if ok && closer(t, ti, best) {
					best = Hit{T: t, Tri: ti, U: u, V: v}
				}
			}
			continue
		}
		near, far := node.left, node.right
		if dir[node.axis] < 0 {
			near, far = far, near
		}
		if sp+2 <= len(stack) {
			stack[sp] = far
			sp++
			stack[sp] = near // popped first
			sp++
		}
	}
	if stats != nil {
		stats.NodesVisited += nodes
		stats.TriTests += tris
	}
	return best, best.Tri >= 0
}
