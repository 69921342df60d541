package vtkio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mesh"
)

// scanner tokenizes a legacy VTK stream.
type scanner struct {
	s   *bufio.Scanner
	buf []string
}

func newScanner(r io.Reader) *scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<20), 1<<24)
	s.Split(bufio.ScanWords)
	return &scanner{s: s}
}

func (sc *scanner) next() (string, error) {
	if !sc.s.Scan() {
		if err := sc.s.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	return sc.s.Text(), nil
}

func (sc *scanner) expect(word string) error {
	got, err := sc.next()
	if err != nil {
		return err
	}
	if !strings.EqualFold(got, word) {
		return fmt.Errorf("vtkio: expected %q, got %q", word, got)
	}
	return nil
}

func (sc *scanner) nextInt() (int, error) {
	w, err := sc.next()
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(w)
}

// nextCount reads a header count or cell arity, rejecting negatives.
// Callers grow their slices as data arrives rather than sizing them from
// the count, so a huge count in a short file costs nothing up front.
func (sc *scanner) nextCount(what string) (int, error) {
	n, err := sc.nextInt()
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("vtkio: negative %s %d", what, n)
	}
	return n, nil
}

// nextIndex reads a point index and range-checks it against nPoints
// before narrowing it to int32.
func (sc *scanner) nextIndex(nPoints int) (int32, error) {
	v, err := sc.nextInt()
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= nPoints {
		return 0, fmt.Errorf("vtkio: point index %d out of range [0,%d)", v, nPoints)
	}
	return int32(v), nil
}

func (sc *scanner) nextFloat() (float64, error) {
	w, err := sc.next()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(w, 64)
}

// header consumes the four-line legacy header through "DATASET <kind>"
// and returns the dataset kind.
func readHeader(r *bufio.Reader) (kind string, rest io.Reader, err error) {
	// First two lines are free text ("# vtk DataFile Version x", title).
	for i := 0; i < 2; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			return "", nil, fmt.Errorf("vtkio: truncated header: %w", err)
		}
	}
	format, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	if !strings.EqualFold(strings.TrimSpace(format), "ASCII") {
		return "", nil, fmt.Errorf("vtkio: only ASCII legacy files supported, got %q", strings.TrimSpace(format))
	}
	dataset, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	fields := strings.Fields(dataset)
	if len(fields) != 2 || !strings.EqualFold(fields[0], "DATASET") {
		return "", nil, fmt.Errorf("vtkio: malformed DATASET line %q", strings.TrimSpace(dataset))
	}
	return strings.ToUpper(fields[1]), r, nil
}

func readPoints(sc *scanner) ([]mesh.Vec3, error) {
	if err := sc.expect("POINTS"); err != nil {
		return nil, err
	}
	n, err := sc.nextCount("point count")
	if err != nil {
		return nil, err
	}
	if _, err := sc.next(); err != nil { // data type word
		return nil, err
	}
	var pts []mesh.Vec3
	for i := 0; i < n; i++ {
		var p mesh.Vec3
		for c := 0; c < 3; c++ {
			v, err := sc.nextFloat()
			if err != nil {
				return nil, fmt.Errorf("vtkio: point %d: %w", i, err)
			}
			p[c] = v
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// readPointScalars parses an optional POINT_DATA/SCALARS block; returns
// nil when the stream ends first.
func readPointScalars(sc *scanner, nPoints int) ([]float64, error) {
	w, err := sc.next()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(w, "POINT_DATA") {
		return nil, fmt.Errorf("vtkio: unexpected section %q", w)
	}
	n, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if n != nPoints {
		return nil, fmt.Errorf("vtkio: POINT_DATA %d for %d points", n, nPoints)
	}
	// SCALARS name type [components], LOOKUP_TABLE default.
	if err := sc.expect("SCALARS"); err != nil {
		return nil, err
	}
	if _, err := sc.next(); err != nil { // name
		return nil, err
	}
	if _, err := sc.next(); err != nil { // type
		return nil, err
	}
	w, err = sc.next()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(w, "LOOKUP_TABLE") {
		// Optional component count came first.
		if err := sc.expect("LOOKUP_TABLE"); err != nil {
			return nil, err
		}
	}
	if _, err := sc.next(); err != nil { // table name
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		v, err := sc.nextFloat()
		if err != nil {
			return nil, fmt.Errorf("vtkio: scalar %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// ReadTriMesh parses an ASCII legacy POLYDATA file with triangular
// POLYGONS (the format WriteTriMesh produces).
func ReadTriMesh(r io.Reader) (*mesh.TriMesh, error) {
	kind, rest, err := readHeader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if kind != "POLYDATA" {
		return nil, fmt.Errorf("vtkio: expected POLYDATA, got %s", kind)
	}
	sc := newScanner(rest)
	pts, err := readPoints(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.expect("POLYGONS"); err != nil {
		return nil, err
	}
	nPolys, err := sc.nextCount("polygon count")
	if err != nil {
		return nil, err
	}
	if _, err := sc.nextInt(); err != nil { // total size
		return nil, err
	}
	out := &mesh.TriMesh{Points: pts}
	for p := 0; p < nPolys; p++ {
		arity, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		if arity != 3 {
			return nil, fmt.Errorf("vtkio: polygon %d has %d vertices; only triangles supported", p, arity)
		}
		var tri [3]int32
		for c := 0; c < 3; c++ {
			if tri[c], err = sc.nextIndex(len(pts)); err != nil {
				return nil, err
			}
		}
		out.Tris = append(out.Tris, tri)
	}
	scalars, err := readPointScalars(sc, len(pts))
	if err != nil {
		return nil, err
	}
	if scalars != nil {
		out.Scalars = scalars
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadUnstructured parses an ASCII legacy UNSTRUCTURED_GRID file
// containing the cell types this library writes (tet/pyramid/wedge/hex).
func ReadUnstructured(r io.Reader) (*mesh.UnstructuredMesh, error) {
	kind, rest, err := readHeader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if kind != "UNSTRUCTURED_GRID" {
		return nil, fmt.Errorf("vtkio: expected UNSTRUCTURED_GRID, got %s", kind)
	}
	sc := newScanner(rest)
	pts, err := readPoints(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.expect("CELLS"); err != nil {
		return nil, err
	}
	nCells, err := sc.nextCount("cell count")
	if err != nil {
		return nil, err
	}
	if _, err := sc.nextInt(); err != nil { // total size
		return nil, err
	}
	var conns [][]int32
	for c := 0; c < nCells; c++ {
		arity, err := sc.nextCount("cell arity")
		if err != nil {
			return nil, err
		}
		var conn []int32
		for i := 0; i < arity; i++ {
			v, err := sc.nextIndex(len(pts))
			if err != nil {
				return nil, err
			}
			conn = append(conn, v)
		}
		conns = append(conns, conn)
	}
	if err := sc.expect("CELL_TYPES"); err != nil {
		return nil, err
	}
	if n, err := sc.nextInt(); err != nil || n != nCells {
		return nil, fmt.Errorf("vtkio: CELL_TYPES %d for %d cells (%v)", n, nCells, err)
	}
	out := mesh.NewUnstructuredMesh()
	out.Points = pts
	out.Scalars = make([]float64, len(pts))
	for c := 0; c < nCells; c++ {
		code, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		var ct mesh.CellType
		switch code {
		case vtkTet:
			ct = mesh.Tet
		case vtkHex:
			ct = mesh.Hex
		case vtkWedge:
			ct = mesh.Wedge
		case vtkPyramid:
			ct = mesh.Pyramid
		default:
			return nil, fmt.Errorf("vtkio: unsupported cell type code %d", code)
		}
		if ct.NumCellPoints() != len(conns[c]) {
			return nil, fmt.Errorf("vtkio: cell %d type %s has %d points", c, ct, len(conns[c]))
		}
		out.AddCell(ct, conns[c]...)
	}
	scalars, err := readPointScalars(sc, len(pts))
	if err != nil {
		return nil, err
	}
	if scalars != nil {
		out.Scalars = scalars
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
