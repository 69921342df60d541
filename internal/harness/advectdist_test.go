package harness

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestAdvectScaling: the rank sweep runs every configured fabric size
// over the study data set, every cell's gathered streamlines match the
// single-rank oracle bit for bit, cells are cached, the heartbeat
// carries the rank count, and the report gains the scaling section.
func TestAdvectScaling(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2, 4}
	var hb bytes.Buffer
	c.Heartbeat = &hb

	runs, err := c.AdvectScaling(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	for i, r := range runs {
		if r.Ranks != c.Ranks[i] || r.Size != 8 {
			t.Fatalf("run %d is (%d^3, ranks=%d), want (8^3, ranks=%d)", i, r.Size, r.Ranks, c.Ranks[i])
		}
		if !r.Identical {
			t.Fatalf("ranks=%d: gathered streamlines differ from the single-rank oracle", r.Ranks)
		}
		if r.ParticleSteps <= 0 || r.Rounds < 1 || r.WallSec <= 0 {
			t.Fatalf("ranks=%d: degenerate run %+v", r.Ranks, r)
		}
		if r.Participation <= 0 || r.Participation > 1.0000001 {
			t.Fatalf("ranks=%d: participation %v out of (0, 1]", r.Ranks, r.Participation)
		}
		if len(r.Stats) != r.Ranks {
			t.Fatalf("ranks=%d: %d stat rows", r.Ranks, len(r.Stats))
		}
	}

	re := regexp.MustCompile(`cell \(Particle Advection, 8\^3, ranks=2\) done in \d+\.\d+s`)
	if !re.MatchString(hb.String()) {
		t.Errorf("heartbeat %q missing rank-tagged advect cell line", hb.String())
	}

	// Cached: a repeat is the same object.
	again, err := c.AdvectDist(8, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if again != runs[1] {
		t.Error("AdvectDist did not cache the (8^3, ranks=2) cell")
	}

	var b strings.Builder
	c.writeAdvectDist(&b)
	out := b.String()
	if !strings.Contains(out, "## Distributed advection (parallelize-over-data)") {
		t.Error("report section missing")
	}
	if !strings.Contains(out, "| 8^3 | 4 |") {
		t.Errorf("report section missing the 4-rank row:\n%s", out)
	}
	if strings.Contains(out, "| NO |") {
		t.Errorf("report flags a non-identical cell:\n%s", out)
	}
}

// TestAdvectScalingSkipsOversizedRanks: rank counts beyond the cell
// layers are skipped, not failed.
func TestAdvectScalingSkipsOversizedRanks(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{2, 16}
	runs, err := c.AdvectScaling(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Ranks != 2 {
		t.Fatalf("got %d runs (first ranks=%d), want just ranks=2", len(runs), runs[0].Ranks)
	}
}

// TestAdvectScalingAdaptive: the adaptive BS23 sweep is bit-identical to
// its own single-rank oracle, caches apart from the fixed-step cells,
// and stays out of the report's (fixed-step) scaling section.
func TestAdvectScalingAdaptive(t *testing.T) {
	c := tinyConfig()
	c.Ranks = []int{1, 2}
	runs, err := c.AdvectScaling(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if !r.Adaptive || !r.Identical {
			t.Fatalf("ranks=%d: adaptive=%v identical=%v, want both", r.Ranks, r.Adaptive, r.Identical)
		}
	}
	var b strings.Builder
	c.writeAdvectDist(&b)
	if b.Len() != 0 {
		t.Errorf("adaptive cells reached the report:\n%s", b.String())
	}
	fixed, err := c.AdvectDist(8, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if fixed == runs[1] || fixed.Adaptive {
		t.Error("the fixed-step cell shares the adaptive cell's cache entry")
	}
	b.Reset()
	c.writeAdvectDist(&b)
	if !strings.Contains(b.String(), "| 8^3 | 2 |") || strings.Contains(b.String(), "| 8^3 | 1 |") {
		t.Errorf("report should hold only the fixed-step 2-rank cell:\n%s", b.String())
	}
}
