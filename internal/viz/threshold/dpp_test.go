package threshold

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

func sameUnstructured(t *testing.T, tag string, a, b *mesh.UnstructuredMesh) {
	t.Helper()
	if len(a.Points) != len(b.Points) || len(a.Types) != len(b.Types) ||
		len(a.Conn) != len(b.Conn) || len(a.Offsets) != len(b.Offsets) {
		t.Fatalf("%s: shape differs: %d/%d pts, %d/%d cells, %d/%d conn, %d/%d offsets",
			tag, len(b.Points), len(a.Points), len(b.Types), len(a.Types),
			len(b.Conn), len(a.Conn), len(b.Offsets), len(a.Offsets))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Scalars[i] != b.Scalars[i] {
			t.Fatalf("%s: point %d differs: %v/%v vs %v/%v",
				tag, i, b.Points[i], b.Scalars[i], a.Points[i], a.Scalars[i])
		}
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			t.Fatalf("%s: cell %d type differs", tag, i)
		}
	}
	for i := range a.Conn {
		if a.Conn[i] != b.Conn[i] {
			t.Fatalf("%s: conn %d = %d, want %d", tag, i, b.Conn[i], a.Conn[i])
		}
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("%s: offset %d = %d, want %d", tag, i, b.Offsets[i], a.Offsets[i])
		}
	}
}

// TestThresholdDPPBitIdentical is the backend golden test: the DPP
// flag → compact formulation must reproduce the traditional
// scratch-mesh output exactly — same chunk-scoped point dedup, same
// ordering — across grid sizes and worker counts.
func TestThresholdDPPBitIdentical(t *testing.T) {
	for _, n := range []int{8, 12, 17} {
		g := gradGrid(t, n)
		for _, opts := range []Options{
			{Field: "e"},                            // default upper-half range
			{Field: "e", Lo: 2, Hi: float64(n) - 2}, // interior band
			{Field: "e", Lo: 1000, Hi: 2000},        // empty result
			{Field: "e", Lo: -1, Hi: float64(n)},    // everything kept
		} {
			refPool := par.NewPool(2)
			ref, err := New(opts).Run(g, viz.NewExec(refPool))
			refPool.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				pool := par.NewPool(workers)
				dppOpts := opts
				dppOpts.Backend = viz.DPP
				got, err := New(dppOpts).Run(g, viz.NewExec(pool))
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("n=%d workers=%d lo=%g", n, workers, opts.Lo)
				sameUnstructured(t, tag, ref.Cells, got.Cells)
				if ref.Elements != got.Elements {
					t.Fatalf("%s: elements %d != %d", tag, got.Elements, ref.Elements)
				}
			}
		}
	}
}

// The DPP backend's operation profile must depend only on the input,
// not the worker count.
func TestThresholdDPPProfileDeterministicAcrossWorkers(t *testing.T) {
	g := gradGrid(t, 10)
	var ref *viz.Result
	for _, workers := range []int{1, 2, 4, 8} {
		pool := par.NewPool(workers)
		res, err := New(Options{Field: "e", Backend: viz.DPP}).Run(g, viz.NewExec(pool))
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
		} else if res.Profile != ref.Profile {
			t.Fatalf("workers=%d: profile %+v != %+v", workers, res.Profile, ref.Profile)
		}
	}
}
