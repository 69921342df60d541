package harness

// The distributed-advection scaling sweep: ranks as a sweep dimension
// alongside size. Each (size, ranks) cell runs dist.Advect over the
// study data set, verifies the gathered streamlines against the
// cached single-rank oracle bit for bit, and records the Wang et al.
// (arXiv 2410.09710) breakdown of parallelize-over-data overheads —
// participation, ping-pong migrations, and idle time — for report.md.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/viz"
	"repro/internal/viz/advect"
)

// advectDistDeadline is the per-cell watchdog: a wedged fabric aborts
// with a typed error instead of hanging the sweep.
const advectDistDeadline = 5 * time.Minute

// advectOracleRun caches the single-rank shared-memory run of one
// size and integrator: the reference streamlines every distributed
// cell is checked against, plus its wall clock for the speedup column.
type advectOracleRun struct {
	Lines   *mesh.LineSet
	WallSec float64
}

// AdvectDistRun is the outcome of one (size, ranks) distributed
// advection cell.
type AdvectDistRun struct {
	Size  int
	Ranks int
	// Adaptive marks a cell run with the adaptive BS23 integrator
	// instead of the paper's fixed-step RK4; the report covers only
	// fixed-step cells.
	Adaptive bool
	// Rounds is the BSP round count to termination; Ghost the halo
	// width in cell layers.
	Rounds, Ghost int
	// WallSec is the distributed run's wall clock; OracleWallSec the
	// cached single-rank shared-memory run's.
	WallSec       float64
	OracleWallSec float64
	// ParticleSteps is the gathered streamline point count (the same
	// quantity the advection benchmarks rate as particle-steps/s).
	ParticleSteps int
	// Identical reports that the gathered LineSet matched the
	// single-rank oracle bit for bit.
	Identical bool
	// Participation is total steps / (ranks x max per-rank steps):
	// 1.0 is perfect balance, 1/ranks is one rank doing all the work.
	Participation float64
	// Migrated and PingPong total the per-rank migration counters;
	// IdleNs totals time blocked on migration receives and the
	// termination collective.
	Migrated, PingPong int
	IdleNs             int64
	Stats              []dist.AdvectRankStats
}

// advectDistFilter builds the advection filter the distributed cells
// run — the same configuration as the sweep's shared-memory cell, with
// the chosen integrator.
func (c *Config) advectDistFilter(adaptive bool) *advect.Filter {
	return advect.New(advect.Options{
		Vector:       "velocity",
		NumParticles: c.Particles,
		NumSteps:     c.ParticleSteps,
		Adaptive:     adaptive,
	})
}

// linesBitEqual reports whether two streamline sets match bit for bit.
func linesBitEqual(a, b *mesh.LineSet) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Points, b.Points) && slices.Equal(a.Scalars, b.Scalars) && slices.Equal(a.Offsets, b.Offsets)
}

// advectOracleRun runs (and caches) the single-rank shared-memory
// advection at one size.
func (c *Config) advectOracleRun(size int, adaptive bool) (*advectOracleRun, error) {
	key := fmt.Sprintf("%d/%t", size, adaptive)
	if or, ok := c.advectOracle[key]; ok {
		return or, nil
	}
	g, err := c.Dataset(size)
	if err != nil {
		return nil, err
	}
	f := c.advectDistFilter(adaptive)
	t0 := time.Now()
	res, err := f.Run(g, viz.NewExec(c.Pool))
	if err != nil {
		return nil, fmt.Errorf("harness: advect oracle at %d^3: %w", size, err)
	}
	or := &advectOracleRun{Lines: res.Lines, WallSec: time.Since(t0).Seconds()}
	c.advectOracle[key] = or
	return or, nil
}

// AdvectDist executes (cached) one distributed advection cell at the
// given size and rank count, with the adaptive BS23 or the fixed-step
// RK4 integrator, checking the gathered streamlines against the
// single-rank oracle of the same integrator.
func (c *Config) AdvectDist(size, ranks int, adaptive bool) (*AdvectDistRun, error) {
	c.Defaults()
	key := fmt.Sprintf("%d/%d/%t", size, ranks, adaptive)
	if r, ok := c.advectRuns[key]; ok {
		return r, nil
	}
	g, err := c.Dataset(size)
	if err != nil {
		return nil, err
	}
	or, err := c.advectOracleRun(size, adaptive)
	if err != nil {
		return nil, err
	}
	f := c.advectDistFilter(adaptive)
	t0 := time.Now()
	res, err := dist.Advect(g, f, ranks, dist.AdvectOptions{
		Fabric:   dist.Options{Tracer: c.Tracer},
		Deadline: advectDistDeadline,
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		c.heartbeat("cell (Particle Advection, %d^3, ranks=%d) FAILED: %v", size, ranks, err)
		return nil, fmt.Errorf("harness: distributed advect at %d^3 on %d ranks: %w", size, ranks, err)
	}
	run := &AdvectDistRun{
		Size: size, Ranks: ranks, Adaptive: adaptive,
		Rounds: res.Rounds, Ghost: res.Ghost,
		WallSec: wall, OracleWallSec: or.WallSec,
		ParticleSteps: res.Lines.TotalPoints(),
		Identical:     linesBitEqual(or.Lines, res.Lines),
		Stats:         res.Stats,
	}
	var total, max uint64
	for _, s := range res.Stats {
		total += s.Steps
		if s.Steps > max {
			max = s.Steps
		}
		run.Migrated += s.MigratedOut
		run.PingPong += s.PingPong
		run.IdleNs += s.IdleNs
	}
	if max > 0 {
		run.Participation = float64(total) / (float64(ranks) * float64(max))
	}
	c.advectRuns[key] = run
	c.heartbeat("cell (Particle Advection, %d^3, ranks=%d) done in %.2fs%s", size, ranks, wall, c.droppedNote())
	return run, nil
}

// AdvectScaling sweeps the distributed advection cell over every
// configured rank count at one size (rank counts exceeding the cell
// layers are skipped), returning the runs ascending by rank count.
func (c *Config) AdvectScaling(size int, adaptive bool) ([]*AdvectDistRun, error) {
	c.Defaults()
	var out []*AdvectDistRun
	var firstErr error
	for _, r := range c.Ranks {
		if r < 1 || r > size {
			c.log("skip advect-dist at %d^3: %d ranks exceed the cell layers", size, r)
			continue
		}
		run, err := c.AdvectDist(size, r, adaptive)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, run)
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// writeAdvectDist appends the distributed-advection scaling section to
// the report from the cached fixed-step cells (quiet when that sweep
// did not run).
// Participation, ping-pong, and idle follow the overhead breakdown of
// Wang et al., "Maximum Livelihood: Understanding the Execution
// Behaviors of Parallel Particle Advection" (arXiv 2410.09710).
func (c *Config) writeAdvectDist(b *strings.Builder) {
	runs := make([]*AdvectDistRun, 0, len(c.advectRuns))
	for _, r := range c.advectRuns {
		if !r.Adaptive {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Size != runs[j].Size {
			return runs[i].Size < runs[j].Size
		}
		return runs[i].Ranks < runs[j].Ranks
	})
	b.WriteString("\n## Distributed advection (parallelize-over-data)\n\n")
	b.WriteString("Block-decomposed particle advection on the rank fabric: each rank owns\n")
	b.WriteString("a z-slab and advects its resident particles; boundary crossings migrate\n")
	b.WriteString("in batched SoA messages. Every cell's gathered streamlines are checked\n")
	b.WriteString("bit for bit against the single-rank run. Participation is total steps /\n")
	b.WriteString("(ranks x max per-rank steps); ping-pong counts migrants sent straight\n")
	b.WriteString("back to the rank they came from; idle is time blocked on migration\n")
	b.WriteString("receives and the termination collective, summed over ranks.\n\n")
	b.WriteString("| size | ranks | rounds | ghost | wall (s) | vs 1-rank | participation | migrated | ping-pong | idle (ms) | identical |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		speed := "-"
		if r.WallSec > 0 {
			speed = fmt.Sprintf("%.2fx", r.OracleWallSec/r.WallSec)
		}
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		fmt.Fprintf(b, "| %d^3 | %d | %d | %d | %.3f | %s | %.2f | %d | %d | %.1f | %s |\n",
			r.Size, r.Ranks, r.Rounds, r.Ghost, r.WallSec, speed,
			r.Participation, r.Migrated, r.PingPong, float64(r.IdleNs)/1e6, ident)
	}
}
