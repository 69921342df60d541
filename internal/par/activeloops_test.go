package par

import (
	"sync/atomic"
	"testing"
)

// TestActiveLoops checks the dispatch-queue depth probe: zero when the
// pool is idle, at least one from inside a running loop, and surfaced
// through Stats on uninstrumented pools too.
func TestActiveLoops(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if n := p.ActiveLoops(); n != 0 {
		t.Fatalf("idle ActiveLoops = %d, want 0", n)
	}
	if n := p.Stats().ActiveLoops; n != 0 {
		t.Fatalf("idle Stats().ActiveLoops = %d, want 0", n)
	}
	// Set from several workers at once, so it must be atomic.
	var sawActive atomic.Bool
	p.For(64, 0, func(lo, hi, worker int) {
		if p.ActiveLoops() >= 1 {
			sawActive.Store(true)
		}
	})
	if !sawActive.Load() {
		t.Error("ActiveLoops never reached 1 during a running loop")
	}
	if n := p.ActiveLoops(); n != 0 {
		t.Fatalf("post-loop ActiveLoops = %d, want 0", n)
	}
}
