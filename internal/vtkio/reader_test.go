package vtkio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func TestTriMeshRoundTrip(t *testing.T) {
	orig := triMesh()
	var buf bytes.Buffer
	if err := WriteTriMesh(&buf, orig, "round trip", "energy"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTriMesh(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != orig.NumPoints() || got.NumTris() != orig.NumTris() {
		t.Fatalf("round trip lost geometry: %d/%d points, %d/%d tris",
			got.NumPoints(), orig.NumPoints(), got.NumTris(), orig.NumTris())
	}
	for i := range orig.Points {
		if got.Points[i] != orig.Points[i] {
			t.Fatalf("point %d = %v, want %v", i, got.Points[i], orig.Points[i])
		}
		if got.Scalars[i] != orig.Scalars[i] {
			t.Fatalf("scalar %d = %v, want %v", i, got.Scalars[i], orig.Scalars[i])
		}
	}
	for i := range orig.Tris {
		if got.Tris[i] != orig.Tris[i] {
			t.Fatalf("tri %d = %v, want %v", i, got.Tris[i], orig.Tris[i])
		}
	}
}

func TestUnstructuredRoundTrip(t *testing.T) {
	orig := mesh.NewUnstructuredMesh()
	p0 := orig.AddPoint(mesh.Vec3{0, 0, 0}, 1)
	p1 := orig.AddPoint(mesh.Vec3{1, 0, 0}, 2)
	p2 := orig.AddPoint(mesh.Vec3{0, 1, 0}, 3)
	p3 := orig.AddPoint(mesh.Vec3{0, 0, 1}, 4)
	orig.AddCell(mesh.Tet, p0, p1, p2, p3)
	var hex [8]int32
	for i := range hex {
		hex[i] = orig.AddPoint(mesh.Vec3{float64(i), 1, 1}, float64(i))
	}
	orig.AddCell(mesh.Hex, hex[0], hex[1], hex[2], hex[3], hex[4], hex[5], hex[6], hex[7])
	var w6 [6]int32
	for i := range w6 {
		w6[i] = orig.AddPoint(mesh.Vec3{float64(i), 2, 2}, 0)
	}
	orig.AddCell(mesh.Wedge, w6[0], w6[1], w6[2], w6[3], w6[4], w6[5])

	var buf bytes.Buffer
	if err := WriteUnstructured(&buf, orig, "rt", "energy"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUnstructured(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != 3 || len(got.Points) != len(orig.Points) {
		t.Fatalf("round trip lost cells/points: %d cells, %d points", got.NumCells(), len(got.Points))
	}
	for c := 0; c < 3; c++ {
		wantT, wantConn := orig.Cell(c)
		gotT, gotConn := got.Cell(c)
		if wantT != gotT {
			t.Fatalf("cell %d type %v, want %v", c, gotT, wantT)
		}
		for i := range wantConn {
			if wantConn[i] != gotConn[i] {
				t.Fatalf("cell %d conn %v, want %v", c, gotConn, wantConn)
			}
		}
	}
	if got.Scalars[0] != 1 || got.Scalars[3] != 4 {
		t.Errorf("scalars lost: %v", got.Scalars[:4])
	}
}

// triMeshGarbage holds malformed POLYDATA inputs ReadTriMesh must
// reject with an error; they also seed FuzzReadTriMesh.
var triMeshGarbage = map[string]string{
	"binary": "# vtk DataFile Version 3.0\nt\nBINARY\nDATASET POLYDATA\n",
	"wrong dataset": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET STRUCTURED_POINTS\n" +
		"DIMENSIONS 2 2 2\n",
	"quad polygon": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 4 double\n0 0 0\n1 0 0\n1 1 0\n0 1 0\nPOLYGONS 1 5\n4 0 1 2 3\n",
	"bad index": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 0 1 9\n",
	"truncated":       "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\nPOINTS 5 double\n0 0 0\n",
	"negative points": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\nPOINTS -1 float\n",
	"huge points": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 4000000000000000000 float\n0 0 0\n",
	"negative polygons": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS -1 0\n",
	"huge polygons": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 4000000000000000000 4\n3 0 1 2\n",
	// 2^32 wraps to point 0 through int32.
	"wrapping index": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 4294967296 1 2\n",
}

func TestReadTriMeshRejectsGarbage(t *testing.T) {
	for name, in := range triMeshGarbage {
		if _, err := ReadTriMesh(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const (
	ugHead      = "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
	ugTetPoints = "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
)

// unstructuredGarbage holds malformed UNSTRUCTURED_GRID inputs
// ReadUnstructured must reject with an error; they also seed
// FuzzReadUnstructured.
var unstructuredGarbage = map[string]string{
	"unknown cell code": ugHead + ugTetPoints + "CELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n99\n",
	"tet with 3 points": ugHead + ugTetPoints + "CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n10\n",
	"negative points":   ugHead + "POINTS -1 float\n",
	"huge points":       ugHead + "POINTS 4000000000000000000 float\n0 0 0\n",
	"negative cells":    ugHead + ugTetPoints + "CELLS -2 0\n",
	"huge cells":        ugHead + ugTetPoints + "CELLS 4000000000000000000 5\n4 0 1 2 3\n",
	"negative arity":    ugHead + ugTetPoints + "CELLS 1 5\n-5 0 1 2 3\nCELL_TYPES 1\n10\n",
	"huge arity":        ugHead + ugTetPoints + "CELLS 1 5\n4000000000000000000 0 1 2 3\n",
	// 2^32+3 wraps to point 3 through int32.
	"wrapping index": ugHead + ugTetPoints + "CELLS 1 5\n4 0 1 2 4294967299\nCELL_TYPES 1\n10\n",
}

func TestReadUnstructuredRejectsGarbage(t *testing.T) {
	for name, in := range unstructuredGarbage {
		if _, err := ReadUnstructured(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadTriMeshWithoutScalars(t *testing.T) {
	in := "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 0 1 2\n"
	m, err := ReadTriMesh(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 1 || len(m.Scalars) != 0 {
		t.Errorf("no-scalar mesh parsed wrong: %d tris, %d scalars", m.NumTris(), len(m.Scalars))
	}
}
