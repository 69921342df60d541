package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsDisabled: every method on a nil tracer must be a safe
// no-op — that is the disabled fast path instrumented code relies on.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if got := tr.Now(); got != 0 {
		t.Errorf("nil Now() = %d, want 0", got)
	}
	s := tr.Begin()
	tr.End(PipelineTrack, "x", s)
	tr.Record(0, "x", 0, 1)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Tracks() != 0 {
		t.Error("nil tracer recorded something")
	}
	if spans := tr.Spans(); spans != nil {
		t.Errorf("nil Spans() = %v, want nil", spans)
	}
	tr.Reset()
	tr.SetTrackName(0, "x")
}

// TestSpanNestingInvariants records a begin/end pair nest and checks
// the canonical ordering: on one track, sorted output puts the parent
// (earlier start, longer duration) before its children, children are
// contained in their parent, and siblings do not overlap.
func TestSpanNestingInvariants(t *testing.T) {
	tr := New(2)
	outer := tr.Begin()
	for i := 0; i < 3; i++ {
		inner := tr.Begin()
		time.Sleep(time.Millisecond)
		tr.End(PipelineTrack, "child", inner)
	}
	tr.End(PipelineTrack, "parent", outer)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "parent" {
		t.Fatalf("first span %q, want parent (parent-before-child order)", spans[0].Name)
	}
	p := spans[0]
	var prevEnd int64
	for _, c := range spans[1:] {
		if c.Name != "child" {
			t.Fatalf("unexpected span %q", c.Name)
		}
		if c.Start < p.Start || c.End() > p.End() {
			t.Errorf("child [%d,%d) not contained in parent [%d,%d)", c.Start, c.End(), p.Start, p.End())
		}
		if c.Start < prevEnd {
			t.Errorf("sibling children overlap: start %d < previous end %d", c.Start, prevEnd)
		}
		prevEnd = c.End()
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d spans", tr.Dropped())
	}
}

// TestConcurrentRecording hammers one tracer from many goroutines —
// both a private track per goroutine (the pool-worker pattern) and a
// single shared track — and checks nothing is lost or torn. Run under
// -race by the Makefile race target.
func TestConcurrentRecording(t *testing.T) {
	const workers = 8
	const perWorker = 500
	tr := NewWithCapacity(workers, workers*perWorker+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := tr.Begin()
				tr.End(WorkerTrack(w), "own", s)
				tr.Record(PipelineTrack, "shared", int64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped())
	}
	spans := tr.Spans()
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == "" {
			t.Fatal("torn span with empty name")
		}
	}
	if counts["own"] != workers*perWorker || counts["shared"] != workers*perWorker {
		t.Errorf("counts = %v, want %d each", counts, workers*perWorker)
	}
}

// TestResetWhileRecording: a Reset that races a writer holding a
// reserved but unpublished slot (a late pool participant recording its
// chunk span while a benchmark resets between loops) must wait for that
// writer, so recording afterwards neither hangs nor loses its slot.
func TestResetWhileRecording(t *testing.T) {
	tr := NewWithCapacity(1, 8)
	track := tr.tracks[WorkerTrack(0)]
	// An in-flight writer: slot 0 reserved, span not yet published.
	slot := track.cur.Add(1) - 1
	reset := make(chan struct{})
	go func() { tr.Reset(); close(reset) }()
	select {
	case <-reset:
		t.Fatal("Reset returned while a reserved slot was unpublished")
	case <-time.After(20 * time.Millisecond):
	}
	track.buf[slot] = Span{Name: "late", Track: int32(WorkerTrack(0))}
	track.published.CompareAndSwap(slot, slot+1)
	<-reset

	recorded := make(chan struct{})
	go func() { tr.End(WorkerTrack(0), "after", tr.Begin()); close(recorded) }()
	select {
	case <-recorded:
	case <-time.After(5 * time.Second):
		t.Fatal("recording after a concurrent Reset hung")
	}
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "after" || tr.Dropped() != 0 {
		t.Errorf("after Reset: spans %v, dropped %d; want one \"after\" span, none dropped", spans, tr.Dropped())
	}
}

// TestDroppedAccounting fills a tiny track and checks overflow is
// counted, not blocking or corrupting.
func TestDroppedAccounting(t *testing.T) {
	tr := NewWithCapacity(0, 4)
	for i := 0; i < 10; i++ {
		tr.Record(PipelineTrack, "s", int64(i), 1)
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("Reset did not clear the track")
	}
	tr.Record(PipelineTrack, "t", 0, 1)
	if tr.Len() != 1 {
		t.Error("track unusable after Reset")
	}
}

// TestRecordBounds: spans on unknown tracks and negative durations must
// not corrupt the buffers.
func TestRecordBounds(t *testing.T) {
	tr := New(1)
	tr.Record(-1, "x", 0, 1)
	tr.Record(99, "x", 0, 1)
	tr.Record(PipelineTrack, "neg", 10, -5)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Dur != 0 {
		t.Errorf("spans = %v, want one zero-dur span", spans)
	}
}

// TestSummarizeSelfTime checks the containment sweep: a parent's self
// time excludes its children, across tracks independently.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "parent", Track: 0, Start: 0, Dur: 100},
		{Name: "child", Track: 0, Start: 10, Dur: 30},
		{Name: "child", Track: 0, Start: 50, Dur: 20},
		{Name: "grandchild", Track: 0, Start: 12, Dur: 5},
		// Same shape on another track must not bleed into track 0.
		{Name: "parent", Track: 1, Start: 0, Dur: 40},
	}
	stats := Summarize(spans)
	got := map[string]StageStat{}
	for _, st := range stats {
		got[st.Name] = st
	}
	if st := got["parent"]; st.SelfNs != (100-30-20)+40 || st.TotalNs != 140 || st.Count != 2 {
		t.Errorf("parent = %+v, want self 90 total 140 count 2", st)
	}
	if st := got["child"]; st.SelfNs != (30-5)+20 || st.TotalNs != 50 || st.MaxNs != 30 {
		t.Errorf("child = %+v, want self 45 total 50 max 30", st)
	}
	if st := got["grandchild"]; st.SelfNs != 5 {
		t.Errorf("grandchild = %+v, want self 5", st)
	}
	// Ranked by self time descending.
	if stats[0].Name != "parent" {
		t.Errorf("first stage %q, want parent", stats[0].Name)
	}
}

// TestWindow slices spans by start offset for per-cell attribution.
func TestWindow(t *testing.T) {
	spans := []Span{
		{Name: "a", Start: 5, Dur: 1},
		{Name: "b", Start: 10, Dur: 1},
		{Name: "c", Start: 20, Dur: 1},
	}
	got := Window(spans, 10, 20)
	if len(got) != 1 || got[0].Name != "b" {
		t.Errorf("Window = %v, want [b]", got)
	}
}

// TestWriteSummaryRenders smoke-tests the text renderer: every stage
// name appears and the wall-percent column shows up when wall is given.
func TestWriteSummaryRenders(t *testing.T) {
	spans := []Span{
		{Name: "simulate", Track: 0, Start: 0, Dur: 3_000_000},
		{Name: "Contour", Track: 0, Start: 3_000_000, Dur: 1_500_000},
	}
	var b strings.Builder
	if err := WriteSummary(&b, spans, 2, 4_500_000); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"simulate", "Contour", "% wall", "top 2 spans", "66.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
