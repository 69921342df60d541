// Package dpp is a small library of data-parallel primitives — scan,
// gather, scatter, stream compaction, and segmented reduction — built on
// the par worker pool. It is the reproduction's counterpart of the
// primitive layer that VTK-m (and Thrust/TBB before it) builds its
// filters on: Bethel et al. (arXiv 2010.02361) compare traditional
// versus data-parallel-primitive formulations of exactly the geometry
// kernels this repository measures, and the contour and threshold
// filters offer both formulations as selectable backends so the power
// study can ask the paper's opportunity-versus-sensitive question of
// each.
//
// Every primitive is deterministic: results are bit-identical across
// runs and worker counts. The scans achieve this with a fixed blocking
// width (Block) that does not depend on the pool — each block is folded
// serially in index order, the block sums are combined serially, and a
// second parallel pass rewrites each block — so even floating-point
// scans reproduce exactly. Scatter requires unique destination indices
// (every DPP use here scatters through the offsets of a preceding scan,
// which are unique by construction), making it race-free and
// order-independent.
//
// Primitives lease their working state — including the loop-body
// closures themselves — from the pool's scratch store, so a
// steady-state sweep (the study's 288-configuration campaign) re-runs
// compositions of them without allocating: on a serial pool a warm scan
// is zero-alloc, and on a parallel pool only the pool's own dispatch
// cost remains. Concurrent calls on one pool lease disjoint instances
// and are -race-clean.
package dpp

import "repro/internal/par"

// Block is the fixed tile width of the two-pass primitives. It is
// independent of the pool's worker count — the property that makes the
// scans (including floating-point scans) bit-identical across worker
// counts — and matches the chunk-size ceiling the pool itself uses
// (par.MaxGrain), so a block is small enough to balance and large
// enough to amortize the per-block bookkeeping.
const Block = 8192

// Number constrains the element types the arithmetic primitives accept.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// blocks returns the number of Block-wide tiles covering n elements.
func blocks(n int) int { return (n + Block - 1) / Block }

// scanState is the leased working state of one scan call: the block-sum
// buffer plus the two pass bodies, which close over the state pointer
// once (at first lease) instead of over fresh captures at every call.
type scanState[T Number] struct {
	in, out   []T
	sums      []T
	n         int
	inclusive bool
	sumPass   func(lo, hi, w int)
	writePass func(lo, hi, w int)
}

type scanKey[T Number] struct{}

func leaseScan[T Number](pool *par.Pool) *scanState[T] {
	st, _ := pool.GetScratch(scanKey[T]{}).(*scanState[T])
	if st != nil {
		return st
	}
	st = &scanState[T]{}
	st.sumPass = func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			blo, bhi := b*Block, min((b+1)*Block, st.n)
			var acc T
			for i := blo; i < bhi; i++ {
				acc += st.in[i]
			}
			st.sums[b] = acc
		}
	}
	st.writePass = func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			blo, bhi := b*Block, min((b+1)*Block, st.n)
			run := st.sums[b]
			if st.inclusive {
				for i := blo; i < bhi; i++ {
					run += st.in[i]
					st.out[i] = run
				}
			} else {
				// Reading in[i] before writing out[i] keeps the in-place
				// (aliased) case correct.
				for i := blo; i < bhi; i++ {
					v := st.in[i]
					st.out[i] = run
					run += v
				}
			}
		}
	}
	return st
}

// ScanExclusive writes the exclusive prefix sum of in to out
// (out[i] = in[0] + … + in[i-1], out[0] = 0) and returns the total sum.
// in and out must have equal length and may alias (an in-place scan);
// partial overlap is not supported. The scan is blocked two-pass:
// per-block sums in parallel, a serial scan over the (at most
// len/Block + 1) block sums, then a parallel per-block rewrite — the
// generalization of the prefix sum the mesh welder always used, now
// shared by every DPP kernel.
func ScanExclusive[T Number](pool *par.Pool, in, out []T) T {
	return scan(pool, in, out, false)
}

// ScanInclusive writes the inclusive prefix sum of in to out
// (out[i] = in[0] + … + in[i]) and returns the total sum. in and out
// must have equal length and may alias.
func ScanInclusive[T Number](pool *par.Pool, in, out []T) T {
	return scan(pool, in, out, true)
}

func scan[T Number](pool *par.Pool, in, out []T, inclusive bool) T {
	if len(in) != len(out) {
		panic("dpp: scan input and output lengths differ")
	}
	n := len(in)
	var zero T
	if n == 0 {
		return zero
	}
	nb := blocks(n)
	st := leaseScan[T](pool)
	if cap(st.sums) < nb {
		st.sums = make([]T, nb)
	}
	st.in, st.out, st.sums = in, out, st.sums[:nb]
	st.n, st.inclusive = n, inclusive
	// Pass 1: fold each block serially in index order.
	pool.For(nb, 1, st.sumPass)
	// Serial exclusive scan of the block sums.
	total := zero
	for b := 0; b < nb; b++ {
		s := st.sums[b]
		st.sums[b] = total
		total += s
	}
	// Pass 2: rewrite each block with its running prefix.
	pool.For(nb, 1, st.writePass)
	st.in, st.out = nil, nil // don't pin caller arrays in the store
	pool.PutScratch(scanKey[T]{}, st)
	return total
}

// moveState is the leased state shared by Gather and Scatter for one
// element type.
type moveState[T any] struct {
	dst, src []T
	idx      []int32
	gather   func(lo, hi, w int)
	scatter  func(lo, hi, w int)
}

type moveKey[T any] struct{}

func leaseMove[T any](pool *par.Pool) *moveState[T] {
	st, _ := pool.GetScratch(moveKey[T]{}).(*moveState[T])
	if st != nil {
		return st
	}
	st = &moveState[T]{}
	st.gather = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			st.dst[i] = st.src[st.idx[i]]
		}
	}
	st.scatter = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			st.dst[st.idx[i]] = st.src[i]
		}
	}
	return st
}

func (st *moveState[T]) release(pool *par.Pool) {
	st.dst, st.src, st.idx = nil, nil, nil
	pool.PutScratch(moveKey[T]{}, st)
}

// Gather writes dst[i] = src[idx[i]] for every i. dst and idx must have
// equal length; dst must not alias src.
func Gather[T any](pool *par.Pool, dst, src []T, idx []int32) {
	if len(dst) != len(idx) {
		panic("dpp: gather destination and index lengths differ")
	}
	st := leaseMove[T](pool)
	st.dst, st.src, st.idx = dst, src, idx
	pool.For(len(idx), 0, st.gather)
	st.release(pool)
}

// Scatter writes dst[idx[i]] = src[i] for every i. src and idx must have
// equal length, dst must not alias src, and the indices must be unique —
// the caller's side of the contract that keeps the primitive
// deterministic and race-free. Scatters through the offsets of a
// preceding exclusive scan (the stream-compaction pattern) satisfy it by
// construction.
func Scatter[T any](pool *par.Pool, dst, src []T, idx []int32) {
	if len(src) != len(idx) {
		panic("dpp: scatter source and index lengths differ")
	}
	st := leaseMove[T](pool)
	st.dst, st.src, st.idx = dst, src, idx
	pool.For(len(idx), 0, st.scatter)
	st.release(pool)
}

// compactState is the leased working state of Compact: the scanned
// offsets plus the scatter body.
type compactState struct {
	flags, out, offs []int32
	scatterPass      func(lo, hi, w int)
}

type compactKey struct{}

func leaseCompact(pool *par.Pool) *compactState {
	st, _ := pool.GetScratch(compactKey{}).(*compactState)
	if st != nil {
		return st
	}
	st = &compactState{}
	st.scatterPass = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if st.flags[i] != 0 {
				st.out[st.offs[i]] = int32(i)
			}
		}
	}
	return st
}

// Compact performs flag → scan → scatter stream compaction: it writes
// the indices i with flags[i] != 0 to out in ascending order and returns
// how many there were. out must have room for every flagged index
// (len(out) >= the returned count; len(flags) always suffices). flags is
// left unchanged.
func Compact(pool *par.Pool, flags []int32, out []int32) int {
	n := len(flags)
	if n == 0 {
		return 0
	}
	st := leaseCompact(pool)
	if cap(st.offs) < n {
		st.offs = make([]int32, n)
	}
	st.flags, st.out, st.offs = flags, out, st.offs[:n]
	total := ScanExclusive(pool, flags, st.offs)
	pool.For(n, 0, st.scatterPass)
	st.flags, st.out = nil, nil
	pool.PutScratch(compactKey{}, st)
	return int(total)
}

// reduceState is the leased working state of ReduceByKey for one
// key/value type pair.
type reduceState[K comparable, T Number] struct {
	keys     []K
	vals     []T
	outKeys  []K
	outVals  []T
	heads    []int32
	starts   []int32
	n, segs  int
	headPass func(lo, hi, w int)
	foldPass func(lo, hi, w int)
}

type reduceKey[K comparable, T Number] struct{}

func leaseReduce[K comparable, T Number](pool *par.Pool) *reduceState[K, T] {
	st, _ := pool.GetScratch(reduceKey[K, T]{}).(*reduceState[K, T])
	if st != nil {
		return st
	}
	st = &reduceState[K, T]{}
	// Every comparison reads its left neighbor, which no iteration
	// writes, so chunk boundaries are safe.
	st.headPass = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if i == 0 || st.keys[i] != st.keys[i-1] {
				st.heads[i] = 1
			} else {
				st.heads[i] = 0
			}
		}
	}
	// One serial in-order fold per run; runs execute in parallel.
	st.foldPass = func(lo, hi, _ int) {
		for s := lo; s < hi; s++ {
			start := int(st.starts[s])
			end := st.n
			if s+1 < st.segs {
				end = int(st.starts[s+1])
			}
			acc := st.vals[start]
			for i := start + 1; i < end; i++ {
				acc += st.vals[i]
			}
			st.outKeys[s] = st.keys[start]
			st.outVals[s] = acc
		}
	}
	return st
}

// ReduceByKey reduces runs of equal adjacent keys: for input keys
// grouped so that equal keys are adjacent (e.g. sorted), it writes one
// entry per run to outKeys/outVals — the run's key and the serial
// in-order sum of its values — and returns the number of runs. outKeys
// and outVals must each have room for every run (len(keys) always
// suffices). Keys only group when adjacent, as in every DPP library's
// reduce_by_key; values of equal but non-adjacent keys stay separate.
func ReduceByKey[K comparable, T Number](pool *par.Pool, keys []K, vals []T, outKeys []K, outVals []T) int {
	if len(keys) != len(vals) {
		panic("dpp: reduce-by-key key and value lengths differ")
	}
	n := len(keys)
	if n == 0 {
		return 0
	}
	st := leaseReduce[K, T](pool)
	if cap(st.heads) < n {
		st.heads = make([]int32, n)
		st.starts = make([]int32, n)
	}
	st.keys, st.vals, st.outKeys, st.outVals = keys, vals, outKeys, outVals
	st.heads, st.starts, st.n = st.heads[:n], st.starts[:n], n
	pool.For(n, 0, st.headPass)
	st.segs = Compact(pool, st.heads, st.starts)
	pool.For(st.segs, 0, st.foldPass)
	segs := st.segs
	st.keys, st.vals, st.outKeys, st.outVals = nil, nil, nil, nil
	pool.PutScratch(reduceKey[K, T]{}, st)
	return segs
}
