package main

import (
	"runtime/debug"
	"time"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/sim/clover"
)

// dataset materializes the hydro proxy's state at cfg.SimTime for one
// size. Untraced it is cfg.Dataset, the path `vizpower verify` takes.
// Traced, the benchmark makes the same calls itself — clover.New, Step
// until SimTime, Grid, and ResampleCube above MaxSimSize — so each gets
// a span, and hands the grid to cfg with Preload. Sizes above
// MaxSimSize resample the MaxSimSize grid, which callers build first.
func dataset(r *run, cfg *harness.Config, size int, tr *tracer, parent int, op int64) (*mesh.UniformGrid, error) {
	if tr == nil {
		return cfg.Dataset(size)
	}
	if size > cfg.MaxSimSize {
		base, err := cfg.Dataset(cfg.MaxSimSize)
		if err != nil {
			return nil, err
		}
		id := tr.begin("mesh.resample", parent, op)
		up, err := mesh.ResampleCube(base, size)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		cfg.Preload(size, up)
		return up, nil
	}
	sim, err := clover.New(size, clover.Options{})
	if err != nil {
		return nil, err
	}
	for steps := 0; sim.Time() < cfg.SimTime && steps < cfg.MaxSimSteps; steps++ {
		hydroStep(r, sim, cfg.Pool, nil, tr, parent, op)
	}
	id := tr.begin("clover.grid", parent, op)
	g, err := sim.Grid()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cfg.Preload(size, g)
	return g, nil
}

// hydroStep advances sim one step under a clover.step span.
func hydroStep(r *run, sim *clover.Sim, pool *par.Pool, recs []ops.Recorder, tr *tracer, parent int, op int64) {
	id := tr.begin("clover.step", parent, op)
	sim.Step(pool, recs)
	tr.end(id)
	if tr != nil {
		r.cellUpdates += float64(sim.NumCells())
	}
}

// tracedPool returns a pool of the machine's width whose counters the
// traced pass reads back (par.Pool.Stats).
func tracedPool() *par.Pool {
	p := par.NewPool(0)
	p.Instrument(nil)
	return p
}

// poolShares sets par.idle_share (worker idle time over worker wall
// time) and par.steal_share (stolen chunks over chunks) for a pass of
// wallS seconds on p.
func (r *run) poolShares(p *par.Pool, wallS float64) {
	t := p.Stats().Totals()
	if wallS > 0 {
		r.values["par.idle_share"] = float64(t.IdleNs) / 1e9 / (wallS * float64(p.Workers()))
	}
	if t.Tasks > 0 {
		r.values["par.steal_share"] = float64(t.Stolen) / float64(t.Tasks)
	}
}

// dispatchNs times an empty-body For on a warm 4-worker pool, the
// configuration BenchmarkParForDispatch in internal/par uses: the
// median over batches of the per-call wall time.
func (r *run) dispatchNs() {
	p := par.NewPool(4)
	defer p.Close()
	const n, grain, batch = 4 * 1024, 1024, 2000
	body := func(lo, hi, worker int) {}
	p.For(n, grain, body)
	var per []float64
	for b := 0; b < 15; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			p.For(n, grain, body)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	r.values["par.dispatch_ns"] = median(per)
}

// settle returns the previous pass's garbage to the OS so passes start
// alike and peak RSS is one pass's peak.
func settle() { debug.FreeOSMemory() }
