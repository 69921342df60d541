package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own code. Spans of one operation (a study, a cycle, a
// request) share Op; Parent is the enclosing span's ID, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once at the end of a
// run. A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextOp atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op returns a fresh operation id.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// now is the tracer clock, for bounding a pass.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// layerStat aggregates the spans of one name.
type layerStat struct {
	durs []float64 // seconds per call
	self float64   // seconds not covered by child spans
}

func (s *layerStat) total() float64 {
	var sum float64
	for _, d := range s.durs {
		sum += d
	}
	return sum
}

func (s *layerStat) median() float64 { return median(s.durs) }

// stats groups the closed spans by name. A span's self time is its
// duration minus its children's; children of one span run one after
// another, so their durations do not overlap.
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.durs = append(st.durs, d)
		st.self += math.Max(0, d-child[i])
	}
	return out
}

// uncovered returns the share of [lo, hi) that no root span covers —
// the time the benchmark spent outside any traced call.
func (t *tracer) uncovered(lo, hi int64) float64 {
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.End >= 0 && s.End > lo && s.Start < hi {
			iv = append(iv, [2]int64{max(s.Start, lo), min(s.End, hi)})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64 = 0, lo
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	if hi <= lo {
		return 0
	}
	return 1 - float64(covered)/float64(hi-lo)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median of xs (mean of the middle pair for an even count); 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// above it (nearest rank), its value, and how many samples lie above
// it. With ten samples or fewer no percentile qualifies, and the
// maximum (p100) is returned.
func tail(xs []float64) (pct int, v float64, above int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return 100, s[n-1], 0
	}
	pct = 100 * (n - 10) / n
	k := (pct*n + 99) / 100
	return pct, s[k-1], n - k
}
