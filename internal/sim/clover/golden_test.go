package clover

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
)

// stateHash folds the raw float64 bits of the five conserved arrays into
// one FNV-64a digest, so any change in any bit of any cell shows.
func stateHash(s *Sim) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range [][]float64{s.rho, s.mx, s.my, s.mz, s.etot} {
		for _, v := range f {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStepGolden pins the solver's output bit for bit: the digests were
// recorded from the per-pencil sweep that predates the row-tiled one,
// so any rewrite of the sweep must reproduce every conserved value
// exactly, on every pool size. 13³ has a pencil and row count (169, 13)
// that no tested worker count divides.
func TestStepGolden(t *testing.T) {
	cases := []struct {
		n, steps int
		second   bool
		want     string
	}{
		{32, 20, false, "482531d4538684c6"},
		{13, 30, false, "98db3767513cb50b"},
		{12, 25, true, "f07f7b55222ca539"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("n%d_second%v_w%d", tc.n, tc.second, workers), func(t *testing.T) {
				s, err := New(tc.n, Options{SecondOrder: tc.second})
				if err != nil {
					t.Fatal(err)
				}
				pool := par.NewPool(workers)
				defer pool.Close()
				s.Run(tc.steps, pool, nil)
				if got := stateHash(s); got != tc.want {
					t.Errorf("state hash after %d steps = %s, want %s", tc.steps, got, tc.want)
				}
			})
		}
	}
}

// TestStepOpsGolden pins the operation profile one step records: the
// counts model the paper's pencil-sweep algorithm (stream x, strided
// y/z), not this package's loop structure, so a faster sweep must
// record exactly the same traffic, flops and branches.
func TestStepOpsGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		s, err := New(13, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pool := par.NewPool(workers)
		recs := make([]ops.Recorder, pool.Workers())
		s.Step(pool, recs)
		pool.Close()
		p := ops.Merge(recs)
		got := fmt.Sprintf("loads=%v stores=%v flops=%d branches=%d ws=%d",
			p.LoadBytes, p.StoreBytes, p.Flops, p.Branches, p.WorkingSetBytes)
		if want := "loads=[386672 246064 0 0] stores=[193336 175760 0 0] flops=505310 branches=19773 ws=123032"; got != want {
			t.Errorf("workers=%d: step profile\n got %s\nwant %s", workers, got, want)
		}
	}
}
