package harness

import (
	"errors"
	"testing"
)

// TestCellsSweepEachPhaseOnce: every artifact built from one Cells
// reads the same memoized sweeps, so a permanently failing Phase 2 cell
// is executed and recorded once, not once per artifact that reads it.
func TestCellsSweepEachPhaseOnce(t *testing.T) {
	c := tinyConfig()
	c.PhaseSize = 8 // Table III's largest size, 16, is then a phase of its own
	attempts := 0
	c.Inject = func(name string, size, attempt int) error {
		if name == "Isovolume" && size == c.PhaseSize {
			attempts++
			return errors.New("node OOM")
		}
		return nil
	}
	cells := NewCells(c)
	for _, a := range Artifacts {
		var err error
		switch {
		case a.Text != nil:
			_, err = a.Text(cells)
		case a.Series != nil:
			_, err = a.Series(cells)
		}
		if err != nil {
			t.Errorf("%s: %v", a.ID, err)
		}
	}
	if attempts != 1 {
		t.Errorf("failing cell executed %d times, want 1", attempts)
	}
	if fs := c.Failures(); len(fs) != 1 {
		t.Errorf("failures = %v, want one record", fs)
	}
}
