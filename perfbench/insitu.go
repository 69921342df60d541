package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
	"repro/internal/viz"
)

const (
	insituSize   = 64
	insituSteps  = 2    // hydro steps per cycle
	insituBudget = 65.0 // W, the governed replay's job-average target
	// governCycles is how many recorded cycles the governor replays:
	// a fixed prefix, so the modeled results do not depend on how many
	// cycles the window fitted. The govern command floors at 6.
	governCycles = 8
	// conserveTol is the relative mass/energy drift the clover tests
	// allow.
	conserveTol = 1e-12
)

// checkFilter wraps a paper filter inside the pipeline so the benchmark
// sees each output; core.Pipeline keeps only the operation profiles.
type checkFilter struct {
	viz.Filter
	out      int   // output size of the last run
	elements int64 // Result.Elements of the last run
	steps    int   // particle steps of the last run (advection)
}

func (f *checkFilter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	res, err := f.Filter.Run(g, ex)
	if err != nil {
		return nil, err
	}
	f.elements = res.Elements
	switch {
	case res.Tris != nil:
		f.out = res.Tris.NumTris()
	case res.Cells != nil:
		f.out = res.Cells.NumCells()
	case res.Lines != nil:
		f.out = res.Lines.NumLines()
		f.steps = len(res.Lines.Points) - f.out
	default:
		f.out = res.Images
	}
	return res, nil
}

// insitu is one coupled pipeline: the 64^3 hydro proxy and the eight
// paper filters at in situ settings.
type insitu struct {
	p       *core.Pipeline
	filters []*checkFilter
	// mass and energy are the totals after the last check.
	mass, energy float64
}

// insituSetup builds the simulation, warms it up to the study's
// physical time (so the shock has formed), and couples the filters.
func insituSetup(r *run, pool *par.Pool, tr *tracer) (*insitu, error) {
	op := tr.op()
	root := tr.begin("insitu.setup", -1, op)
	defer tr.end(root)
	sim, err := clover.New(insituSize, clover.Options{})
	if err != nil {
		return nil, err
	}
	s := &insitu{}
	cfg := (&harness.Config{Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300, Isovalues: 10}).Defaults()
	for sim.Time() < cfg.SimTime {
		hydroStep(r, sim, pool, nil, tr, root, op)
	}
	s.mass, s.energy = sim.TotalMass(), sim.TotalEnergy()
	var fs []viz.Filter
	for _, f := range cfg.Filters() {
		cf := &checkFilter{Filter: f}
		s.filters = append(s.filters, cf)
		fs = append(fs, cf)
	}
	if s.p, err = core.NewPipeline(sim, fs, insituSteps, pool, cpu.BroadwellEP()); err != nil {
		return nil, err
	}
	return s, nil
}

// cycle runs one simulate+visualize cycle and returns its wall time and
// the two recorded phase executions. Untraced it is core.Pipeline's
// RunCycle. Traced, the benchmark makes the calls Pipeline.Simulate and
// Visualize make — Step, Analyze, Grid, each Filter.Run, Analyze — so
// each gets a span.
func (s *insitu) cycle(r *run, tr *tracer) (time.Duration, [2]power.Segment, error) {
	if tr == nil {
		t0 := time.Now()
		res, err := s.p.RunCycle()
		el := time.Since(t0)
		if err != nil {
			return el, [2]power.Segment{}, err
		}
		return el, [2]power.Segment{{Label: "simulate", Exec: res.SimExec}, {Label: "visualize", Exec: res.VizExec}}, nil
	}
	p := s.p
	op := tr.op()
	root := tr.begin("insitu.cycle", -1, op)
	defer tr.end(root)
	t0 := time.Now()
	simID := tr.begin("cycle.simulate", root, op)
	recs := make([]ops.Recorder, p.Pool.Workers())
	for i := 0; i < p.StepsPerCycle; i++ {
		hydroStep(r, p.Sim, p.Pool, recs, tr, simID, op)
	}
	simProf := ops.DrainAll(recs)
	id := tr.begin("cpu.analyze", simID, op)
	simExec := cpu.Analyze(p.Spec, simProf, 0)
	tr.end(id)
	tr.end(simID)

	vizID := tr.begin("cycle.visualize", root, op)
	id = tr.begin("clover.grid", vizID, op)
	g, err := p.Sim.Grid()
	tr.end(id)
	if err != nil {
		return time.Since(t0), [2]power.Segment{}, err
	}
	ex := viz.NewExec(p.Pool)
	var vizProf ops.Profile
	for _, f := range p.Filters {
		id := tr.begin("viz."+slugOf(f.Name()), vizID, op)
		res, err := f.Run(g, ex)
		tr.end(id)
		if err != nil {
			return time.Since(t0), [2]power.Segment{}, err
		}
		vizProf.Add(res.Profile)
	}
	id = tr.begin("cpu.analyze", vizID, op)
	vizExec := cpu.Analyze(p.Spec, vizProf, 0)
	tr.end(id)
	tr.end(vizID)
	return time.Since(t0), [2]power.Segment{{Label: "simulate", Exec: simExec}, {Label: "visualize", Exec: vizExec}}, nil
}

// checkCycle verifies a finished cycle: every filter produced output,
// and the cycle's hydro steps conserved mass and energy to the clover
// tests' relative tolerance. The drift is bounded per cycle, not since
// the start: on 64^3 cells round-off alone adds about 4e-14 per step,
// so a long run would exceed 1e-12 without any leak.
func (s *insitu) checkCycle(r *run) bool {
	sim := s.p.Sim
	m, e := sim.TotalMass(), sim.TotalEnergy()
	dm, de := math.Abs(m-s.mass)/s.mass, math.Abs(e-s.energy)/s.energy
	s.mass, s.energy = m, e
	ok := r.check(dm <= conserveTol, "mass drift %.3e over the cycle ending at step %d", dm, sim.StepCount())
	ok = r.check(de <= conserveTol, "energy drift %.3e over the cycle ending at step %d", de, sim.StepCount()) && ok
	for _, f := range s.filters {
		ok = r.check(f.out > 0, "%s produced no output at step %d", f.Name(), sim.StepCount()) && ok
	}
	return ok
}

// window runs cycles until seconds have passed and at least minCycles
// ran, returning the cycle latencies (ms; +Inf for a failed cycle) and
// the recorded phase executions.
func (s *insitu) window(r *run, tr *tracer, seconds float64, minCycles int) ([]float64, []power.Segment, float64, error) {
	var lat []float64
	var segs []power.Segment
	t0 := time.Now()
	for len(lat) < minCycles || time.Since(t0).Seconds() < seconds {
		el, seg, err := s.cycle(r, tr)
		r.attempted++
		if err != nil {
			return nil, nil, 0, fmt.Errorf("cycle %d: %w", len(lat), err)
		}
		if s.checkCycle(r) {
			lat = append(lat, float64(el.Nanoseconds())/1e6)
		} else {
			r.failed++
			lat = append(lat, math.Inf(1))
		}
		segs = append(segs, seg[:]...)
	}
	return lat, segs, time.Since(t0).Seconds(), nil
}

// govern replays the first governCycles recorded cycles under the
// 65 W budget with the closed-loop governor, and checks the governed
// average stays within 2% of the budget.
func (r *run) govern(segs []power.Segment, tr *tracer) error {
	segs = segs[:2*governCycles]
	spec := cpu.BroadwellEP()
	id := tr.begin("power.run_segments", -1, tr.op())
	t0 := time.Now()
	g, err := power.New(rapl.NewPackage(msr.NewFile(), spec), power.Options{TargetWatts: insituBudget})
	if err != nil {
		return err
	}
	res, err := g.RunSegments(segs)
	replay := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	var j float64
	for _, seg := range segs {
		j += seg.Exec.UnderCap(spec.TDPWatts).EnergyJ
	}
	r.attempted++
	if !r.check(res.AvgPowerWatts <= insituBudget*1.02, "governed average %.2f W over the %.0f W budget", res.AvgPowerWatts, insituBudget) {
		r.failed++
	}
	r.values["power.governed_modeled_s"] = res.TimeSec
	r.values["power.replay_ms"] = float64(replay.Nanoseconds()) / 1e6
	r.values["power.reprograms"] = float64(res.Reprograms)
	r.values["power.avg_w"] = res.AvgPowerWatts
	r.values["cpu.modeled_j_per_cycle"] = j / governCycles
	r.logf("governed_modeled_s=%.6f s over %d cycles at %.0f W (avg %.2f W, %d reprograms); modeled_j_per_cycle=%.6f J at TDP",
		res.TimeSec, governCycles, insituBudget, res.AvgPowerWatts, res.Reprograms, j/governCycles)
	return nil
}

// runInsitu is the `insitu` workload: the coupled pipeline cycling for
// the window, then the governed replay. It does not depend on the seed.
// Set-up is repeated three times and its median reported.
func runInsitu(r *run) error {
	if r.traced {
		return insituTraced(r)
	}
	var setups []float64
	var s *insitu
	for i := 0; i < 3; i++ {
		settle()
		t0 := time.Now()
		var err error
		if s, err = insituSetup(r, par.Default(), nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lat, segs, wall, err := s.window(r, nil, r.seconds, governCycles)
	if err != nil {
		return err
	}
	r.ops("cycles", lat, wall, setups)
	pct, tl, above := tail(lat)
	r.logf("cycle_p50_s=%.6f s cycle_tail_s=%.6f s (p%d of %d cycles, %d above it)", median(lat)/1e3, tl/1e3, pct, len(lat), above)
	return r.govern(segs, nil)
}

// insituTraced runs half the window untraced on the default pool, then
// a fresh pipeline traced on an instrumented pool for the other half;
// the difference of the cycle medians is the tracing overhead.
func insituTraced(r *run) error {
	half := r.seconds / 2
	s, err := insituSetup(r, par.Default(), nil)
	if err != nil {
		return err
	}
	plain, _, _, err := s.window(r, nil, half, 1)
	if err != nil {
		return err
	}
	settle()

	tr := newTracer()
	pool := tracedPool()
	defer pool.Close()
	lo := tr.now()
	if s, err = insituSetup(r, pool, tr); err != nil {
		return err
	}
	lat, segs, _, err := s.window(r, tr, half, governCycles)
	if err != nil {
		return err
	}
	if err := r.govern(segs, tr); err != nil {
		return err
	}
	hi := tr.now()
	r.values["trace.overhead_ms"] = median(lat) - median(plain)
	r.poolShares(pool, float64(hi-lo)/1e9)

	st := tr.stats()
	for _, f := range s.filters {
		slug := slugOf(f.Name())
		if sp, ok := st["viz."+slug]; ok {
			r.values["viz."+slug+"_s"] = sp.median()
		}
		r.values["viz."+slug+".elements"] = float64(f.elements)
		if f.steps > 0 && st["viz."+slug] != nil {
			// Every cycle advects the same seed count; the last cycle's
			// step count over its median time.
			r.values["advect.steps_per_s"] = float64(f.steps) / st["viz."+slug].median()
		}
	}
	r.dispatchNs()
	r.layerFromSpans(tr, lo, hi)
	return tr.write(r.spanPath())
}
