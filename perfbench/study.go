package main

import (
	_ "embed"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/par"
)

// studyClaims is `vizpower verify` output at paper scale. The claims
// text, details included, must come out identical on every run.
//
//go:embed study_claims.txt
var studyClaims string

// studySizes are the paper's data-set sizes (harness defaults).
var studySizes = []int{32, 64, 128, 256}

// studyCell is one (algorithm, size) cell the claim check executes.
type studyCell struct {
	alg  string
	size int
}

func (c studyCell) metric() string { return fmt.Sprintf("study.cell_s.%s.%d", slugOf(c.alg), c.size) }

// studyCells lists the 17 cells CheckClaims runs at paper defaults, in
// its order: Phase 2 (all eight at the 128^3 phase size), then the
// size-scaling series of slice, volume rendering and particle
// advection at the other sizes.
func studyCells() []studyCell {
	var cells []studyCell
	for _, a := range paperAlgs {
		cells = append(cells, studyCell{a.name, 128})
	}
	for _, alg := range []string{"Slice", "Volume Rendering", "Particle Advection"} {
		for _, size := range studySizes {
			if size != 128 {
				cells = append(cells, studyCell{alg, size})
			}
		}
	}
	return cells
}

// runStudy is the `study` workload: the paper-scale claim check of
// `vizpower verify` from an empty harness.Config. It does not depend
// on the seed. One study takes longer than a typical window, so a run
// measures whole studies until the window has passed, at least one.
func runStudy(r *run) error {
	if r.traced {
		return studyTraced(r)
	}
	var lat, setups []float64
	t0 := time.Now()
	for len(lat) == 0 || time.Since(t0).Seconds() < r.seconds {
		studyS, setupS, err := studyPass(r, nil, nil)
		if err != nil {
			return err
		}
		lat = append(lat, studyS*1e3)
		setups = append(setups, setupS)
		settle()
	}
	r.ops("studies", lat, time.Since(t0).Seconds(), setups)
	return nil
}

// studyTraced runs one traced study on an instrumented pool, then one
// untraced study; the difference is the tracing overhead. The untraced
// study is skipped when the traced one took over studyRefLimit, so the
// run stays within its time limit on a slow machine.
func studyTraced(r *run) error {
	tr := newTracer()
	pool := tracedPool()
	defer pool.Close()
	lo := tr.now()
	traced, _, err := studyPass(r, tr, pool)
	if err != nil {
		return err
	}
	hi := tr.now()
	r.poolShares(pool, float64(hi-lo)/1e9)
	st := tr.stats()
	for _, size := range studySizes {
		if s, ok := st[fmt.Sprintf("harness.dataset.%d", size)]; ok {
			r.values[fmt.Sprintf("harness.dataset_s.%d", size)] = s.total()
		}
	}
	for _, c := range studyCells() {
		if s, ok := st[c.metric()]; ok {
			r.values[c.metric()] = s.total()
		}
	}
	if s, ok := st["harness.claims"]; ok {
		r.values["harness.claims_s"] = s.total()
	}
	r.layerFromSpans(tr, lo, hi)
	if err := tr.write(r.spanPath()); err != nil {
		return err
	}
	r.dispatchNs()
	if traced > studyRefLimit {
		r.logf("traced study took %.1f s; untraced reference skipped, trace.overhead_ms not measured", traced)
		return nil
	}
	settle()
	plain, _, err := studyPass(r, nil, nil)
	if err != nil {
		return err
	}
	r.values["trace.overhead_ms"] = (traced - plain) * 1e3
	return nil
}

// studyRefLimit is the longest traced study after which an untraced
// one still fits in the run's time limit.
const studyRefLimit = 75.0 // s

// studyPass runs one study: the four datasets (the set-up), the 17
// cells and the nine claims. Traced, each dataset and cell runs under
// its own span before CheckClaims, which then finds them cached;
// untraced, CheckClaims runs the cells itself as `vizpower verify`
// does. A failed claim or a claims text that differs from the
// recorded one fails the study.
func studyPass(r *run, tr *tracer, pool *par.Pool) (studyS, setupS float64, err error) {
	t0 := time.Now()
	cfg := (&harness.Config{Pool: pool}).Defaults()
	op := tr.op()
	root := tr.begin("study", -1, op)
	defer tr.end(root)
	setup := tr.begin("study.setup", root, op)
	for _, size := range cfg.SortedSizes() {
		id := tr.begin(fmt.Sprintf("harness.dataset.%d", size), setup, op)
		_, err := dataset(r, cfg, size, tr, id, op)
		tr.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("dataset %d^3: %w", size, err)
		}
	}
	tr.end(setup)
	setupS = time.Since(t0).Seconds()
	if tr != nil {
		for _, c := range studyCells() {
			f, err := cfg.FilterByName(c.alg)
			if err != nil {
				return 0, 0, err
			}
			id := tr.begin(c.metric(), root, op)
			_, err = cfg.Run(f, c.size)
			tr.end(id)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	id := tr.begin("harness.claims", root, op)
	claims, err := cfg.CheckClaims()
	tr.end(id)
	studyS = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	text := harness.FormatClaims(claims)
	passed := 0
	for _, cl := range claims {
		if cl.Applicable && cl.Pass {
			passed++
		}
	}
	r.attempted++
	ok := r.check(passed == 9 && len(claims) == 9, "%d/%d claims PASS, want 9/9:\n%s", passed, len(claims), text)
	ok = r.check(text == studyClaims, "claims text differs from the recorded verify output:\n%s", text) && ok
	if !ok {
		r.failed++
	}
	r.logf("study_s=%.3f s (datasets %.3f s): %d/%d claims PASS", studyS, setupS, passed, len(claims))
	return studyS, setupS, nil
}
