package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"table1", "-sizes", "x,y"}); err == nil {
		t.Error("bad -sizes accepted")
	}
	if err := run([]string{"arch", "-quick", "-alg", "Nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"cinema", "-quick", "-alg", "Contour"}); err == nil {
		t.Error("cinema with a non-rendering algorithm accepted")
	}
	if err := run([]string{"advect", "-quick", "-ranks", "2,zero"}); err == nil {
		t.Error("bad -ranks accepted")
	}
	if err := run([]string{"advect", "-quick", "-ranks", "0"}); err == nil {
		t.Error("-ranks 0 accepted")
	}
}

// TestRunAdvectCommand: the distributed advection sweep runs at
// demonstration scale in both integrator modes without a mismatch (a
// non-identical cell is a command error).
func TestRunAdvectCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	for _, args := range [][]string{
		{"advect", "-quick", "-ranks", "1,2,4", "-particles", "64", "-steps", "80"},
		{"advect", "-quick", "-ranks", "2", "-adaptive", "-particles", "64", "-steps", "80"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunQuickCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	// Fast text commands at demonstration scale.
	for _, args := range [][]string{
		{"table1", "-quick"},
		{"energy", "-quick"},
		{"verify", "-quick"}, // class claims SKIP at this scale, others must pass
		{"arch", "-quick", "-alg", "Threshold"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunExportWritesVTK(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"export", "-quick", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset.vtk", "contour.vtk", "threshold.vtk", "particle_advection.vtk"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestRunProfileWritesValidTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"profile", "-quick", "-cap", "80", "-cycles", "2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("profile wrote an invalid trace: %v", err)
	}
	// At least the metadata events plus spans for 2 cycles x 8 filters.
	if n < 20 {
		t.Errorf("trace has only %d events", n)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage summary", "Contour", "par.For"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("summary.txt missing %q", want)
		}
	}
}

func TestRunGlobalTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "t1.json")
	prof := filepath.Join(dir, "t1.pprof")
	if err := run([]string{"table1", "-quick", "-trace", trace, "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Errorf("-trace wrote an invalid trace: %v", err)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("-cpuprofile wrote nothing: %v", err)
	}
}

func TestRunCinemaWritesDatabase(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"cinema", "-quick", "-alg", "Ray Tracing", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("missing index.json: %v", err)
	}
}

// allArtifactsGolden pins the SHA-256 of every deterministic file
// `all -quick` writes (report.md carries wall-clock columns and is left
// out). The values hold at GOMAXPROCS 1 and 2.
var allArtifactsGolden = map[string]string{
	"table1.txt":         "ac98172d2df35366f9454f5715464a314053563af53c0b0ebefbf0f9d0784f12",
	"table2.txt":         "1ae20b2afd375fd812d0888ee45bb5d499052e44830dd19a90fccbf77f9571d1",
	"table3.txt":         "f1822e5d24b5de974876bbf438fc1b5c7f321f8638aa581b4f060b4bf8ab2010",
	"classification.txt": "3e7ea8895d6d60d78c87effe5d99ddfafc4a98410f00a8c80b194ee3d17c6ca0",
	"energy.txt":         "3d3a942075cc1745efee20f71a8ccefdbc9e92e076137b2327f5b1162d52b933",
	"fig2a.csv":          "e5df44f4f60e7171de60aad411b11749ea0df2846825ef1c3eea1cfa8805670d",
	"fig2b.csv":          "5a5c39c508161a1f47167ce0864b6b4499c2a7be0f82c30571f05c30ff8381d7",
	"fig2c.csv":          "c473eb6efdf3fa91e9671f83d89c5ec2fef10f83e338a06c55ad8f0851489e20",
	"fig3.csv":           "50c99b14454e290ac99c6c53586e7a8dcd81be414fc240289f879dedd51cc92c",
	"fig4.csv":           "79365424c6b826a443168599a8d59e66aa90577fddbb9793639f569b57072d1d",
	"fig5.csv":           "06505d1caad96ae5d1182621353961cf005cac66739ef341b30af7e5cdbd7572",
	"fig6.csv":           "39bcc21e1b527adb2cc002421f4023e94296a084eb31376406afede6f1232af2",
	"fig2a.svg":          "2a7cc8b5c68b6dd1cb01355b2e2a1cb33be95dcc8aee38de3cd591159d78d6d5",
	"fig2b.svg":          "6dfdda71fcf7f5ed85417f9b8495467a306713330e09d485f59f99cc08a41731",
	"fig2c.svg":          "bd0937719fb6533983c0162cce03e2d3e6778a7311e8b9d5607d652c30c068d9",
	"fig3.svg":           "fabaf8a348dd59676657598827c5141da2c6b911ae3bfba1e783a1ec22a2221f",
	"fig4.svg":           "93e94903c49f12fd24da06dff896e7c10797897506934cf3e2949e915ff11180",
	"fig5.svg":           "81e4878c6b83537ed71e0b75f680629649655e7d36ca32c89efbaeed20563e83",
	"fig6.svg":           "f45313a6589a3e45981fb9590e724d65f584352e26e88d5edd1ea4510103a207",
}

// runStdout runs one vizpower invocation and returns what it printed
// on stdout.
func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	runErr := run(args)
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return out
}

// TestAllArtifactsGolden: `all -quick` writes the paper's tables and
// figures byte for byte as pinned, and each per-artifact command prints
// exactly the bytes of the file `all` wrote for it.
func TestAllArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	runStdout(t, "all", "-quick", "-out", dir)
	files := make(map[string][]byte, len(allArtifactsGolden))
	for name, want := range allArtifactsGolden {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("all did not write %s: %v", name, err)
			continue
		}
		files[name] = data
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
	for _, c := range []struct {
		file string
		args []string
	}{
		{"table1.txt", []string{"table1"}},
		{"table2.txt", []string{"table2"}},
		{"table3.txt", []string{"table3"}},
		{"classification.txt", []string{"classify"}},
		{"energy.txt", []string{"energy"}},
		{"fig2a.csv", []string{"fig2a", "-csv"}},
		{"fig2b.csv", []string{"fig2b", "-csv"}},
		{"fig2c.csv", []string{"fig2c", "-csv"}},
		{"fig3.csv", []string{"fig3", "-csv"}},
		{"fig4.csv", []string{"fig4", "-csv"}},
		{"fig5.csv", []string{"fig5", "-csv"}},
		{"fig6.csv", []string{"fig6", "-csv"}},
	} {
		got := runStdout(t, append(c.args, "-quick")...)
		if want, ok := files[c.file]; ok && !bytes.Equal(got, want) {
			t.Errorf("vizpower %s printed %d bytes that differ from %s (%d bytes)",
				strings.Join(c.args, " "), len(got), c.file, len(want))
		}
	}
}
