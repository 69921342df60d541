package vtkio

import (
	"bytes"
	"testing"

	"repro/internal/mesh"
)

// The readers take outside input, so the only property fuzzed is that
// they return a mesh or an error and never panic. Under plain go test
// the seed corpora below run as ordinary test cases; `make fuzz`
// explores beyond them.

func FuzzReadTriMesh(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTriMesh(&buf, triMesh(), "fuzz seed", "energy"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, in := range triMeshGarbage {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadTriMesh(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil mesh without an error")
		}
	})
}

func FuzzReadUnstructured(f *testing.F) {
	um := mesh.NewUnstructuredMesh()
	var tet [4]int32
	for i := range tet {
		tet[i] = um.AddPoint(mesh.Vec3{float64(i & 1), float64(i >> 1), float64(i)}, float64(i))
	}
	um.AddCell(mesh.Tet, tet[:]...)
	var buf bytes.Buffer
	if err := WriteUnstructured(&buf, um, "fuzz seed", "energy"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, in := range unstructuredGarbage {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadUnstructured(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil mesh without an error")
		}
	})
}
