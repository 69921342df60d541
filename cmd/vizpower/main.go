// Command vizpower regenerates every table and figure of "Power and
// Performance Tradeoffs for Visualization Algorithms" (Labasan et al.,
// IPDPS 2019) on the simulated-Broadwell reproduction stack.
//
// Usage:
//
//	vizpower <command> [flags]
//
// Commands:
//
//	table1 table2 table3 classify energy fig2a fig2b fig2c fig3 fig4 fig5 fig6
//	          print one of the paper's tables or figures (the list is
//	          harness.Artifacts; figures print as text, or CSV with -csv;
//	          classify -extended adds the extension filters)
//	fig1      render the eight algorithm images (Figure 1) into -out
//	advect    distributed parallelize-over-data particle advection:
//	          sweep -ranks fabric sizes (-adaptive: BS23 integrator),
//	          check bit-identity against the single-rank run, and
//	          report the migration breakdown
//	trace     in situ power timeline under a cap (simulate+visualize)
//	profile   execution telemetry: run in situ cycles under a cap and
//	          write a Perfetto-loadable trace.json plus a stage summary
//	allocate  split a node power budget between simulation and viz
//	serve     run the rendering daemon: an HTTP/JSON API for frames,
//	          cinema orbit segments, and sweep cells, with a shared
//	          derived-structure cache and a power-budgeted admission
//	          queue (-addr, -budget; -budget 0 disables admission)
//	all       regenerate everything into -out (tables, CSVs, images)
//
// Common flags: -quick shrinks the study for a fast demonstration;
// -progress streams per-run log lines to stderr. Any command accepts
// -trace FILE (write a Chrome trace-event JSON of the run's pipeline
// and pool activity) and -cpuprofile FILE (write a pprof CPU profile).
// -backend trad|dpp selects the contour/threshold kernel formulation
// (traditional scratch-mesh vs data-parallel primitives); `all` runs
// both and reports the per-backend classification.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cinema"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/serve"
	"repro/internal/sim/clover"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
	"repro/internal/vtkio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vizpower:", err)
		os.Exit(1)
	}
}

type options struct {
	cfg        *harness.Config
	csv        bool
	out        string
	capW       float64
	budget     float64
	cycles     int
	figSize    int
	alg        string
	extended   bool
	adaptive   bool
	distRanks  int
	traceFile  string
	cpuprofile string
	addr       string
	queueDepth int
	govern     bool
	decisions  bool
}

func parseFlags(cmd string, args []string) (*options, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "shrink the study for a fast demonstration (small sizes and image counts)")
		progress  = fs.Bool("progress", false, "stream per-run progress to stderr")
		sizes     = fs.String("sizes", "", "comma-separated data-set sizes (default 32,64,128,256; quick: 16,32)")
		phaseSize = fs.Int("phase-size", 0, "data-set size for phases 1-2 (default 128; quick: 32)")
		images    = fs.Int("images", 0, "ray tracing / volume rendering image count (default 50)")
		imgSize   = fs.Int("imgsize", 0, "rendered image width/height (default 128)")
		particles = fs.Int("particles", 0, "particle advection seed count (default 1024)")
		steps     = fs.Int("steps", 0, "particle advection step count (default 1000)")
		iso       = fs.Int("isovalues", 0, "contour isovalues per cycle (default 10)")
		csv       = fs.Bool("csv", false, "emit figures as CSV instead of aligned text")
		out       = fs.String("out", "out", "output directory (fig1, all)")
		capW      = fs.Float64("cap", 65, "power cap in watts (trace)")
		budget    = fs.Float64("budget", 130, "node power budget in watts (allocate, serve; serve: 0 disables admission control)")
		addr      = fs.String("addr", "localhost:8080", "listen address (serve)")
		queue     = fs.Int("queue", 64, "admission queue depth before 429s (serve)")
		cycles    = fs.Int("cycles", 3, "in situ cycles (trace)")
		figRes    = fs.Int("figres", 256, "figure-1 rendering resolution")
		alg       = fs.String("alg", "Contour", "algorithm name (arch)")
		extended  = fs.Bool("extended", false, "include the extension filters (classify)")
		ranks     = fs.String("ranks", "", "comma-separated fabric sizes for distributed advection (advect, profile; default 1,2,4,8)")
		adaptive  = fs.Bool("adaptive", false, "advect with the adaptive BS23 integrator instead of fixed-step RK4 (advect)")
		backend   = fs.String("backend", "trad", "geometry kernel formulation for contour/threshold: trad or dpp")
		traceF    = fs.String("trace", "", "write a Chrome trace-event JSON of this run to FILE (load in Perfetto)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of this run to FILE")
		governF   = fs.Bool("govern", false, "all: add the closed-loop governor sweep; serve: calibrate admission from a governed run")
		decisions = fs.Bool("decisions", false, "govern: dump each budget's cap-decision flight recording")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &harness.Config{}
	if *quick {
		cfg.Sizes = []int{16, 32}
		cfg.PhaseSize = 32
		cfg.Images = 10
		cfg.ImageSize = 64
		cfg.Particles = 256
		cfg.ParticleSteps = 300
		cfg.SimTime = 0.05
		cfg.MaxSimSize = 32
	}
	if *sizes != "" {
		cfg.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -sizes entry %q: %w", s, err)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if *phaseSize > 0 {
		cfg.PhaseSize = *phaseSize
	}
	if *images > 0 {
		cfg.Images = *images
	}
	if *imgSize > 0 {
		cfg.ImageSize = *imgSize
	}
	if *particles > 0 {
		cfg.Particles = *particles
	}
	if *steps > 0 {
		cfg.ParticleSteps = *steps
	}
	if *iso > 0 {
		cfg.Isovalues = *iso
	}
	b, err := viz.ParseBackend(*backend)
	if err != nil {
		return nil, err
	}
	cfg.Backend = b
	// distRanks marks an explicit -ranks request: profile then also runs
	// a distributed advection pass under the tracer at the largest size.
	distRanks := 0
	if *ranks != "" {
		cfg.Ranks = nil
		for _, s := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -ranks entry %q", s)
			}
			cfg.Ranks = append(cfg.Ranks, n)
			if n > distRanks {
				distRanks = n
			}
		}
	}
	if *progress {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  [progress]", line) }
	}
	// Sweep heartbeat: one line per executed (algorithm, size) cell so a
	// long campaign is observably alive. Tests construct Config directly
	// and stay quiet.
	cfg.Heartbeat = os.Stderr
	cfg.Defaults()
	return &options{
		cfg: cfg, csv: *csv, out: *out,
		capW: *capW, budget: *budget, cycles: *cycles, figSize: *figRes,
		alg: *alg, extended: *extended, adaptive: *adaptive, distRanks: distRanks,
		traceFile: *traceF, cpuprofile: *cpuprof,
		addr: *addr, queueDepth: *queue, govern: *governF, decisions: *decisions,
	}, nil
}

func run(args []string) (retErr error) {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd := args[0]
	opt, err := parseFlags(cmd, args[1:])
	if err != nil {
		return err
	}
	c := opt.cfg

	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	if opt.traceFile != "" {
		// One tracer across the whole invocation: harness cell spans on
		// the pipeline track, pool chunk spans on the worker tracks —
		// plus request-lane tracks when the daemon is what's traced.
		var tr *telemetry.Tracer
		if cmd == "serve" {
			tr = telemetry.NewServing(c.Pool.Workers(), 8)
		} else {
			tr = telemetry.New(c.Pool.Workers())
		}
		c.Pool.Instrument(tr)
		c.Tracer = tr
		defer func() {
			if err := writeTraceFile(opt.traceFile, tr); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}

	switch cmd {
	case "fig1":
		if err := renderFig1(c, opt.figSize, opt.out); err != nil {
			return err
		}
	case "arch":
		rows, err := c.CompareArchitectures(opt.alg, harness.Architectures())
		if err != nil {
			return err
		}
		fmt.Print(harness.ArchTable(opt.alg, rows))
	case "export":
		return exportCmd(c, opt)
	case "cinema":
		return cinemaCmd(c, opt)
	case "verify":
		claims, err := c.CheckClaims()
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatClaims(claims))
		if !harness.ClaimsAllPass(claims) {
			return fmt.Errorf("reproduction claims failed")
		}
	case "overprovision":
		return overprovisionCmd(c, opt)
	case "govern":
		return governCmd(c, opt)
	case "advect":
		return advectCmd(c, opt)
	case "trace":
		return traceCmd(c, opt)
	case "profile":
		return profileCmd(c, opt)
	case "allocate":
		return allocateCmd(c, opt)
	case "serve":
		return serveCmd(c, opt)
	case "all":
		if err := allCmd(c, opt); err != nil {
			return err
		}
	case "classify", "demand":
		// -extended adds the extension filters; plain classify is the
		// paper's artifact.
		if opt.extended {
			runs, err := c.RunAllExtended(c.PhaseSize)
			if err != nil {
				return err
			}
			fmt.Print(harness.DemandTable(runs))
			break
		}
		cmd = "classify"
		fallthrough
	default:
		a := harness.ArtifactByID(cmd)
		if a == nil {
			usage()
			return fmt.Errorf("unknown command %q", cmd)
		}
		if err := printArtifact(c, a, opt.csv); err != nil {
			return err
		}
	}
	reportFailures(c)
	return nil
}

// serveCmd runs the power-budgeted rendering daemon until interrupted,
// then drains in-flight requests and finalizes the open cinema databases.
func serveCmd(c *harness.Config, opt *options) error {
	srv := serve.New(serve.Options{
		Config:      c,
		BudgetWatts: opt.budget,
		QueueDepth:  opt.queueDepth,
		CinemaDir:   filepath.Join(opt.out, "serve-cinema"),
		Tracer:      c.Tracer,
	})
	if opt.govern {
		// Calibrate admission from a short governed run: per-class
		// measured demand replaces the spec-TDP first-request guess.
		// A small pipeline suffices — the class demand, not the per-size
		// cost, is what seeds the estimate ladder.
		size := c.PhaseSize
		if size > 32 {
			size = 32
		}
		res, err := c.GovernorCompare(size, nil, 2)
		if err != nil {
			return fmt.Errorf("govern calibration: %w", err)
		}
		srv.SeedClassDemand(res.ClassDemand)
		// The calibration runs' flight recordings seed /debug/governor,
		// so the daemon exposes why the admission ladder looks the way
		// it does. Budgets ran in sequence; their decisions concatenate
		// in time order.
		var dec []obs.Decision
		var dropped int64
		for _, row := range res.Rows {
			dec = append(dec, row.Decisions...)
			dropped += row.DecisionsDropped
		}
		srv.SetGovernorLog(dec, dropped)
		fmt.Fprintf(os.Stderr, "vizpower serve: admission calibrated from a governed %d^3 run:", size)
		for _, class := range []core.Class{core.PowerOpportunity, core.PowerSensitive} {
			if w, ok := res.ClassDemand[class]; ok {
				fmt.Fprintf(os.Stderr, " %s %.1f W", class, w)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	if c.Tracer == nil {
		// Counters only, attached after the calibration so its governed
		// numbers stay those of an uninstrumented pool: the vizpower_pool_*
		// series on /metrics count served work instead of reading 0.
		c.Pool.Instrument(nil)
	}
	hs := &http.Server{Addr: opt.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	if opt.budget > 0 {
		fmt.Fprintf(os.Stderr, "vizpower serve: listening on %s (budget %.0f W, queue %d)\n",
			opt.addr, opt.budget, opt.queueDepth)
	} else {
		fmt.Fprintf(os.Stderr, "vizpower serve: listening on %s (admission control off)\n", opt.addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		// Listener died on its own (bad address, port in use).
		srv.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "vizpower serve: %v — draining\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		// Stragglers past the drain window are cut off; the cinema
		// manifests below still cover every frame that completed.
		hs.Close()
	}
	return srv.Close()
}

// reportFailures prints the partial-sweep error report to stderr: failed
// cells are skipped, every other configuration's results still stand.
func reportFailures(c *harness.Config) {
	if fs := c.Failures(); len(fs) > 0 {
		fmt.Fprint(os.Stderr, "vizpower: sweep degraded — ", harness.FailureReport(fs))
	}
}

// cinemaCmd renders an orbit image database (the paper's 50-image-per-
// cycle product) for a rendering algorithm into -out.
func cinemaCmd(c *harness.Config, opt *options) error {
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	db, err := cinema.New(opt.out, "vizpower orbit database", opt.alg)
	if err != nil {
		return err
	}
	// Pipeline PNG encoding off the render loop; Finalize drains the queue.
	db.StartAsync(0, 0)
	var f viz.Filter
	switch opt.alg {
	case "Volume Rendering":
		f = volren.New(volren.Options{
			Field: "energy", Images: c.Images,
			Width: c.ImageSize, Height: c.ImageSize, Sink: db.Sink(),
		})
	case "Ray Tracing":
		f = raytrace.New(raytrace.Options{
			Field: "energy", Images: c.Images,
			Width: c.ImageSize, Height: c.ImageSize, Sink: db.Sink(),
		})
	default:
		return fmt.Errorf("cinema: -alg must be %q or %q", "Ray Tracing", "Volume Rendering")
	}
	if _, err := f.Run(g, viz.NewExec(c.Pool)); err != nil {
		return err
	}
	if err := db.Finalize(); err != nil {
		return err
	}
	fmt.Printf("wrote %d images + index.json to %s\n", db.Len(), opt.out)
	return nil
}

// overprovisionCmd reproduces the Section III-A machine-room argument: a
// slab-decomposed visualization job on an overprovisioned cluster, with
// manufacturing variation, under uniform versus balanced per-node caps.
func overprovisionCmd(c *harness.Config, opt *options) error {
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	f, err := c.FilterByName(opt.alg)
	if err != nil {
		return err
	}
	const nNodes = 8
	nodes, err := cluster.BuildNodes(g, f, nNodes, c.Spec, 0.08,
		func() *viz.Exec { return viz.NewExec(c.Pool) })
	if err != nil {
		return err
	}
	budget := opt.budget
	if budget < nNodes*c.Spec.MinCapWatts {
		budget = nNodes * 55
	}
	fmt.Printf("overprovisioned cluster: %d nodes, %s on z-slabs, +-8%% silicon variation,\n"+
		"machine-room budget %.0f W (%.0f W/node if uniform)\n\n", nNodes, f.Name(), budget, budget/nNodes)
	uni, err := cluster.UniformCaps(nodes, budget)
	if err != nil {
		return err
	}
	bal, err := cluster.BalancedCaps(nodes, budget)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "node", "uniform cap", "uniform T", "balanced cap", "balanced T")
	for i := range nodes {
		fmt.Printf("%-6d %11.0fW %11.4fs %11.0fW %11.4fs\n",
			i, uni.CapsWatts[i], uni.TimesSec[i], bal.CapsWatts[i], bal.TimesSec[i])
	}
	fmt.Printf("\nmakespan: uniform %.4fs, balanced %.4fs (%.2fx)\n",
		uni.MakespanSec, bal.MakespanSec, uni.MakespanSec/bal.MakespanSec)
	fmt.Printf("idle node-seconds: uniform %.4f, balanced %.4f\n", uni.IdleNodeSec, bal.IdleNodeSec)
	fmt.Printf("trapped capacity under uniform caps: %.1f W of %.0f W budget\n",
		cluster.TrappedCapacityWatts(nodes, uni, budget), budget)
	return nil
}

// governBudgets is the default budget ladder of the closed-loop sweep:
// below, at, and above the 70 W sensitivity boundary.
var governBudgets = []float64{55, 65, 75}

// governCycles floors -cycles for the governor sweep: the closed loop
// needs a few feedback rounds to settle, and below six cycles the
// comparison mostly measures its discovery transient.
func governCycles(opt *options) int { return max(opt.cycles, 6) }

// governCmd sweeps the phase-aware closed-loop governor against the
// static phase plan and the uniform cap on a live in situ pipeline at
// the phase size.
func governCmd(c *harness.Config, opt *options) error {
	res, err := c.GovernorCompare(c.PhaseSize, governBudgets, governCycles(opt))
	if err != nil {
		return err
	}
	fmt.Print(harness.GovernTable(res))
	if len(res.Attribution) > 0 {
		fmt.Printf("\nwhere the joules went (live governed runs):\n")
		obs.WriteJoulesTable(os.Stdout, res.Attribution)
	}
	if opt.decisions {
		for _, row := range res.Rows {
			fmt.Printf("\ncap decisions at the %.0f W budget:\n", row.BudgetWatts)
			obs.WriteDecisionTable(os.Stdout, row.Decisions, row.DecisionsDropped)
		}
	}
	return nil
}

// advectCmd sweeps the distributed parallelize-over-data particle
// advection over the configured fabric sizes at the phase size, checks
// every gathered streamline set against the single-rank run bit for
// bit, and prints the Wang et al. (arXiv 2410.09710) migration
// breakdown. -adaptive sweeps the BS23 integrator instead of the
// paper's fixed-step RK4 (report.md covers only fixed-step cells).
func advectCmd(c *harness.Config, opt *options) error {
	size := c.PhaseSize
	mode := "fixed-step RK4"
	if opt.adaptive {
		mode = "adaptive BS23"
	}
	runs, err := c.AdvectScaling(size, opt.adaptive)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("advect: no rank count in %v fits the %d z-layers of %d^3", c.Ranks, size, size)
	}
	fmt.Printf("distributed particle advection (parallelize-over-data) at %d^3\n", size)
	fmt.Printf("%d particles x %d steps, %s; oracle = single-rank shared-memory run\n", c.Particles, c.ParticleSteps, mode)
	fmt.Printf("oracle: %d particle steps in %.3fs\n\n", runs[0].ParticleSteps, runs[0].OracleWallSec)
	fmt.Printf("%-6s %-7s %-6s %-9s %-9s %-13s %-9s %-9s %-9s %s\n",
		"ranks", "rounds", "ghost", "wall(s)", "vs1rank", "participation", "migrated", "pingpong", "idle(ms)", "identical")
	for _, r := range runs {
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		fmt.Printf("%-6d %-7d %-6d %-9.3f %-9s %-13.2f %-9d %-9d %-9.1f %s\n",
			r.Ranks, r.Rounds, r.Ghost, r.WallSec,
			fmt.Sprintf("%.2fx", r.OracleWallSec/r.WallSec),
			r.Participation, r.Migrated, r.PingPong, float64(r.IdleNs)/1e6, ident)
	}
	if last := runs[len(runs)-1]; last.Ranks > 1 {
		fmt.Printf("\nper-rank breakdown at ranks=%d:\n", last.Ranks)
		fmt.Printf("%-5s %-8s %-10s %-8s %-8s %-8s %-9s %s\n",
			"rank", "seeded", "steps", "retired", "out", "in", "pingpong", "idle(ms)")
		for _, s := range last.Stats {
			fmt.Printf("%-5d %-8d %-10d %-8d %-8d %-8d %-9d %.1f\n",
				s.Rank, s.Seeded, s.Steps, s.Retired, s.MigratedOut, s.MigratedIn, s.PingPong, float64(s.IdleNs)/1e6)
		}
	}
	for _, r := range runs {
		if !r.Identical {
			return fmt.Errorf("advect: ranks=%d streamlines differ from the single-rank run", r.Ranks)
		}
	}
	return nil
}

// traceCmd runs the in situ pipeline under a cap and prints the sampled
// power timeline.
func traceCmd(c *harness.Config, opt *options) error {
	sim, err := clover.New(c.PhaseSize/2, clover.Options{})
	if err != nil {
		return err
	}
	pipe, err := core.NewPipeline(sim, c.Filters(), 10, c.Pool, c.Spec)
	if err != nil {
		return err
	}
	pkg := rapl.NewPackage(msr.NewFile(), c.Spec)
	if err := pkg.SetLimitWatts(opt.capW); err != nil {
		return err
	}
	samples, results, err := pipe.Trace(pkg, opt.cycles, 0.1)
	if err != nil {
		return err
	}
	if opt.csv {
		return perfctr.WriteCSV(os.Stdout, samples)
	}
	fmt.Printf("in situ trace: %d cycles under a %.0f W cap (%d segments, %d samples)\n",
		opt.cycles, opt.capW, len(results), len(samples))
	for i, r := range results {
		phase := "simulate "
		if i%2 == 1 {
			phase = "visualize"
		}
		fmt.Printf("  segment %2d %s  T=%8.3fs  f=%.2fGHz  P=%6.2fW  E=%8.1fJ\n",
			i, phase, r.TimeSec, r.FreqGHz, r.PowerWatts, r.EnergyJ)
	}
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s\n", "t(s)", "P(W)", "f(GHz)", "IPC", "LLCmiss")
	for _, s := range samples {
		fmt.Printf("%-10.2f %-10.2f %-10.2f %-10.2f %-10.3f\n",
			s.TimeSec, s.PowerW, s.EffFreqGHz, s.IPC, s.LLCMissRate)
	}
	return nil
}

// profileCmd is the telemetry entry point: run -cycles in situ cycles
// under the -cap RAPL limit with the tracer attached to both the
// pipeline (stage spans) and the worker pool (launch and chunk spans),
// then write a Perfetto-loadable trace.json and a plain-text stage
// summary into -out.
func profileCmd(c *harness.Config, opt *options) error {
	sim, err := clover.New(c.PhaseSize/2, clover.Options{})
	if err != nil {
		return err
	}
	pipe, err := core.NewPipeline(sim, c.Filters(), 10, c.Pool, c.Spec)
	if err != nil {
		return err
	}
	tr := c.Tracer // reuse the -trace tracer if one is already attached
	if tr == nil {
		// With -ranks the distributed advection pass below puts its
		// advance/exchange spans on WorkerTrack(rank), so the tracer
		// needs tracks for whichever of (workers, ranks) is larger.
		tracks := c.Pool.Workers()
		if opt.distRanks > tracks {
			tracks = opt.distRanks
		}
		tr = telemetry.New(tracks)
		c.Pool.Instrument(tr)
	}
	pipe.Tracer = tr
	pkg := rapl.NewPackage(msr.NewFile(), c.Spec)
	if err := pkg.SetLimitWatts(opt.capW); err != nil {
		return err
	}
	t0 := time.Now()
	samples, results, err := pipe.Trace(pkg, opt.cycles, 0.1)
	if err != nil {
		return err
	}
	wall := time.Since(t0)

	// An explicit -ranks also profiles a distributed advection pass on
	// the rank fabric, so the trace carries per-rank advance/exchange
	// spans next to the pipeline stages.
	if r := opt.distRanks; r > 1 {
		g, err := c.Dataset(c.PhaseSize)
		if err != nil {
			return err
		}
		f := advect.New(advect.Options{
			Vector:       "velocity",
			NumParticles: c.Particles,
			NumSteps:     c.ParticleSteps,
		})
		t1 := time.Now()
		dres, err := dist.Advect(g, f, r, dist.AdvectOptions{
			Fabric:   dist.Options{Tracer: tr},
			Deadline: 5 * time.Minute,
		})
		if err != nil {
			return err
		}
		fmt.Printf("profiled distributed advection on %d ranks: %d rounds, ghost %d, %.3fs\n",
			r, dres.Rounds, dres.Ghost, time.Since(t1).Seconds())
	}

	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(opt.out, "trace.json")
	if err := writeTraceFile(tracePath, tr); err != nil {
		return err
	}
	spans := tr.Spans()
	// The energy attribution joins the trace's self-time partition with
	// the meter timeline of the capped pipeline run — the distributed
	// advection pass above (unmetered) shows up as extra self time, not
	// extra joules.
	var meteredJ float64
	for _, s := range samples {
		meteredJ += s.EnergyJ
	}
	joules := obs.Attribute(telemetry.Summarize(spans), meteredJ)
	summaryPath := filepath.Join(opt.out, "summary.txt")
	sf, err := os.Create(summaryPath)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSummary(sf, spans, 10, wall.Nanoseconds()); err != nil {
		sf.Close()
		return err
	}
	if len(joules) > 0 {
		fmt.Fprintf(sf, "\nwhere the joules went (%.0f W cap, %d meter samples):\n", opt.capW, len(samples))
		obs.WriteJoulesTable(sf, joules)
	}
	// Footer: span loss must be visible in the artifact, not only on
	// stderr — a truncated summary otherwise reads as a complete one.
	fmt.Fprintf(sf, "\nspans: %d recorded, %d dropped (bounded tracks)\n", len(spans), tr.Dropped())
	if err := sf.Close(); err != nil {
		return err
	}
	fmt.Printf("profiled %d in situ cycles (%d governed segments) under a %.0f W cap in %.3fs\n",
		opt.cycles, len(results), opt.capW, wall.Seconds())
	fmt.Println("wrote", summaryPath)
	if err := telemetry.WriteSummary(os.Stdout, spans, 5, wall.Nanoseconds()); err != nil {
		return err
	}
	if len(joules) > 0 {
		fmt.Println("\nwhere the joules went:")
		obs.WriteJoulesTable(os.Stdout, joules)
	}
	return nil
}

// writeTraceFile exports the tracer's spans as Chrome trace-event JSON
// and re-validates the written bytes, so a corrupt export fails the
// command instead of failing later inside Perfetto.
func writeTraceFile(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("trace export invalid: %w", err)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "vizpower: trace buffers overflowed, %d spans dropped\n", d)
	}
	fmt.Printf("wrote %s (%d trace events, valid JSON; load at https://ui.perfetto.dev)\n", path, n)
	return nil
}

// allocateCmd splits a node budget between the simulation and each
// visualization algorithm, demonstrating the paper's proposed runtime.
func allocateCmd(c *harness.Config, opt *options) error {
	sim, err := clover.New(c.PhaseSize/2, clover.Options{})
	if err != nil {
		return err
	}
	pipe, err := core.NewPipeline(sim, []viz.Filter{c.Filters()[0]}, 10, c.Pool, c.Spec)
	if err != nil {
		return err
	}
	cr, err := pipe.RunCycle()
	if err != nil {
		return err
	}
	fmt.Printf("budget %.0f W split between the simulation and each visualization algorithm\n", opt.budget)
	fmt.Printf("%-22s %10s %10s %12s %10s  %s\n", "Algorithm", "sim (W)", "viz (W)", "speedup", "class", "")
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	for _, f := range c.Filters() {
		ex := viz.NewExec(c.Pool)
		res, err := f.Run(g, ex)
		if err != nil {
			return err
		}
		vizExec := cpu.Analyze(c.Spec, res.Profile, 0)
		a, err := core.AllocateBudget(cr.SimExec, vizExec, opt.budget)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %10.0f %10.0f %11.2fx %10s\n",
			f.Name(), a.SimWatts, a.VizWatts, a.Speedup, a.VizClass)
	}
	return nil
}

// printArtifact prints one of the paper's tables or figures: a figure
// as aligned text under its title, or as CSV with -csv.
func printArtifact(c *harness.Config, a *harness.Artifact, csv bool) error {
	cells := harness.NewCells(c)
	if a.Text != nil {
		text, err := a.Text(cells)
		fmt.Print(text) // empty on error
		return err
	}
	series, err := a.Series(cells)
	switch {
	case err != nil:
		return err
	case csv:
		fmt.Print(harness.SeriesCSV("cap_watts", series))
	default:
		fmt.Print(harness.FormatSeries(a.Title, "cap (W)", series))
	}
	return nil
}

// renderFig1 renders the Figure 1 images at the phase size into dir.
func renderFig1(c *harness.Config, figSize int, dir string) error {
	paths, err := c.RenderFig1(c.PhaseSize, figSize, dir)
	for _, p := range paths {
		fmt.Println("wrote", p)
	}
	return err
}

// allCmd regenerates every artifact into the output directory.
func allCmd(c *harness.Config, opt *options) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	// The first failed write is kept and returned; later writes are
	// skipped.
	var werr error
	write := func(name, content string) {
		path := filepath.Join(opt.out, name)
		if werr == nil {
			if werr = os.WriteFile(path, []byte(content), 0o644); werr == nil {
				fmt.Println("wrote", path)
			}
		}
	}
	// One bad cell must cost its own artifacts, not the whole campaign:
	// each phase degrades independently and the failures land in the
	// report (and failures.txt) instead of aborting the sweep. Only a
	// failed Phase 2, which most artifacts and the claims read, aborts.
	skip := func(artifact string, err error) {
		fmt.Fprintf(os.Stderr, "vizpower: %s skipped: %v\n", artifact, err)
	}
	cells := harness.NewCells(c)
	runs2, err := cells.Phase2()
	if err != nil {
		return err
	}
	for _, a := range harness.Artifacts {
		switch {
		case a.Text != nil:
			text, err := a.Text(cells)
			if err != nil {
				skip(a.ID, err)
				continue
			}
			write(a.File, text)
		case a.Series != nil:
			series, err := a.Series(cells)
			if err != nil {
				skip(a.ID, err)
				continue
			}
			var svg strings.Builder
			if err := harness.WriteSVGFigure(&svg, a.Title, a.YLabel, series); err != nil {
				return err
			}
			write(a.ID+".csv", harness.SeriesCSV("cap_watts", series))
			write(a.ID+".svg", svg.String())
		default:
			if err := renderFig1(c, opt.figSize, filepath.Join(opt.out, a.ID)); err != nil {
				return err
			}
		}
	}
	// The distributed-advection rank sweep feeds its own report section;
	// a wedged fabric degrades like any other phase.
	if _, err := c.AdvectScaling(c.PhaseSize, false); err != nil {
		skip("advect scaling", err)
	}
	// The backend comparison runs contour and threshold under both the
	// traditional and DPP formulations, feeding the report's "DPP
	// backend" section (per-backend classification).
	if pairs, err := c.BackendCompare(c.PhaseSize); err != nil {
		skip("backend compare", err)
	} else {
		write("backends.txt", harness.BackendTable(pairs))
	}
	// -govern adds the closed-loop capping sweep: governor vs static
	// plan vs uniform cap at the phase size, cached into the report's
	// "Closed-loop capping" section.
	if opt.govern {
		if res, err := c.GovernorCompare(c.PhaseSize, governBudgets, governCycles(opt)); err != nil {
			skip("govern sweep", err)
		} else {
			write("govern.txt", harness.GovernTable(res))
		}
	}
	// The self-contained campaign report: tables, classification, and
	// executable claim checks in one document. The claims need the full
	// Phase 2 set, so a degraded sweep skips them rather than aborting.
	claims, err := c.CheckClaims()
	if err != nil {
		if len(c.Failures()) == 0 {
			return err
		}
		skip("claim checks", err)
		claims = nil
	}
	runs3, _ := cells.Largest() // a failure was reported as table3's
	var report strings.Builder
	if err := c.WriteReport(&report, runs2, runs3, claims); err != nil {
		return err
	}
	write("report.md", report.String())
	if fs := c.Failures(); len(fs) > 0 {
		write("failures.txt", harness.FailureReport(fs))
	}
	return werr
}

// exportCmd runs every filter at the phase size and writes the outputs as
// legacy VTK files (openable in ParaView/VisIt), plus the data set itself.
func exportCmd(c *harness.Config, opt *options) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	writeVTK := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(opt.out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := writeVTK("dataset.vtk", func(w io.Writer) error {
		return vtkio.WriteUniformGrid(w, g, "CloverLeaf-like energy field", "energy")
	}); err != nil {
		return err
	}
	for _, f := range c.ExtendedFilters() {
		ex := viz.NewExec(c.Pool)
		res, err := f.Run(g, ex)
		if err != nil {
			return err
		}
		slug := strings.ReplaceAll(strings.ToLower(f.Name()), " ", "_")
		switch {
		case res.Tris != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
				return vtkio.WriteTriMesh(w, res.Tris, f.Name()+" output", "energy")
			})
		case res.Cells != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
				return vtkio.WriteUnstructured(w, res.Cells, f.Name()+" output", "energy")
			})
		case res.Lines != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
				return vtkio.WriteLineSet(w, res.Lines, f.Name()+" output", "speed")
			})
		default:
			fmt.Printf("skipped %s (image/reduction output)\n", f.Name())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vizpower <command> [flags]
commands: table1 table2 table3 fig1 fig2a fig2b fig2c fig3 fig4 fig5 fig6 [-csv]
          classify [-extended] energy arch [-alg NAME] export trace allocate
          advect [-ranks LIST -adaptive] profile [-cap W -cycles N -out DIR -ranks LIST]
          overprovision [-alg NAME -budget W] verify cinema
          govern [-cycles N -decisions] serve [-addr HOST:PORT -budget W -queue N -out DIR -govern] all
run "vizpower <command> -h" for flags; add -quick for a fast demonstration
global: -trace FILE writes a Perfetto-loadable execution trace of any
command; -cpuprofile FILE writes a pprof CPU profile; -backend trad|dpp
selects the contour/threshold formulation (verify, profile, classify,
all; "all" additionally compares both backends in report.md); -govern
adds the closed-loop governor sweep to "all" and calibrates "serve"
admission from a governed run`)
}
