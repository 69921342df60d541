// Command perfbench is the reproduction's benchmark. It runs one
// workload in this process through the public API of the internal
// packages, checks the outputs, and prints a JSON result as the last
// line of standard output.
//
//	perfbench --workload study|insitu|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from spans the
// benchmark records around each call it makes into a layer. README.md
// lists which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports. An operation is
// one full study on `study`, one simulate+visualize cycle on `insitu`
// and one /render request on `serve`.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// paperAlgs are the eight filters in the order harness.Config.Filters
// returns them, with the slug used in metric names.
var paperAlgs = []struct{ name, slug string }{
	{"Contour", "contour"},
	{"Spherical Clip", "clip"},
	{"Isovolume", "isovolume"},
	{"Threshold", "threshold"},
	{"Slice", "slice"},
	{"Ray Tracing", "raytrace"},
	{"Particle Advection", "advect"},
	{"Volume Rendering", "volren"},
}

func slugOf(alg string) string {
	for _, a := range paperAlgs {
		if a.name == alg {
			return a.slug
		}
	}
	panic("perfbench: not a paper algorithm: " + alg)
}

// perLayer are the metrics every traced run reports; a layer the
// workload bypasses reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"clover.step_s", "s"},
		{"clover.cell_updates_per_s", "1/s"},
		{"clover.grid_s", "s"},
		{"mesh.resample_s", "s"},
	}
	for _, size := range studySizes {
		defs = append(defs, metricDef{fmt.Sprintf("harness.dataset_s.%d", size), "s"})
	}
	for _, c := range studyCells() {
		defs = append(defs, metricDef{c.metric(), "s"})
	}
	defs = append(defs, metricDef{"harness.claims_s", "s"})
	for _, a := range paperAlgs {
		defs = append(defs, metricDef{"viz." + a.slug + "_s", "s"}, metricDef{"viz." + a.slug + ".elements", "count"})
	}
	return append(defs,
		metricDef{"advect.steps_per_s", "1/s"},
		metricDef{"volren.build_ms", "ms"},
		metricDef{"volren.frame_ms", "ms"},
		metricDef{"raytrace.scene_ms", "ms"},
		metricDef{"raytrace.frame_ms", "ms"},
		metricDef{"serve.encode_ms", "ms"},
		metricDef{"serve.cold_frame_ms", "ms"},
		metricDef{"serve.warm_frame_ms", "ms"},
		metricDef{"par.dispatch_ns", "ns"},
		metricDef{"par.idle_share", "ratio"},
		metricDef{"par.steal_share", "ratio"},
		metricDef{"cpu.analyze_us", "us"},
		metricDef{"cpu.modeled_j_per_cycle", "J"},
		metricDef{"power.governed_modeled_s", "s"},
		metricDef{"power.replay_ms", "ms"},
		metricDef{"power.reprograms", "count"},
		metricDef{"power.avg_w", "W"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.queue_wait_ms", "ms"},
		metricDef{"serve.admitted_avg_w", "W"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.scrape_ms", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.untraced_share", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string

	attempted, failed int
	values            map[string]float64
	// cellUpdates counts hydro cells advanced under traced Step calls.
	cellUpdates float64
}

// logf prints one human-readable line; the JSON result stays last.
func (r *run) logf(format string, args ...any) {
	fmt.Printf("[%s] "+format+"\n", append([]any{r.workload}, args...)...)
}

// check reports a failed output check on stderr and returns ok; the
// caller counts the failure against its operation.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops folds one pass's operation latencies (ms; +Inf for a failed
// operation, so failures count as missing the tail) into the
// end-to-end metrics.
func (r *run) ops(what string, latMs []float64, windowS float64, setups []float64) {
	ok := 0
	for _, l := range latMs {
		if !math.IsInf(l, 1) {
			ok++
		}
	}
	pct, tl, above := tail(latMs)
	r.values["setup_s"] = median(setups)
	r.values["op_p50_ms"] = median(latMs)
	r.values["op_tail_ms"] = tl
	r.values["ops_per_s"] = float64(ok) / windowS
	r.logf("%s: n=%d p50=%.3f ms p%d=%.3f ms (%d samples above it) %.3f/s; setup median %.3f s of %d",
		what, len(latMs), median(latMs), pct, tl, above, float64(ok)/windowS, median(setups), len(setups))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerFromSpans fills the per-layer metrics every workload derives
// the same way from its spans, and prints the self-time table.
func (r *run) layerFromSpans(tr *tracer, lo, hi int64) {
	st := tr.stats()
	get := func(name string) *layerStat {
		if s, ok := st[name]; ok {
			return s
		}
		return &layerStat{}
	}
	steps := get("clover.step")
	if len(steps.durs) > 0 {
		r.values["clover.step_s"] = steps.total() / float64(len(steps.durs))
	}
	if tot := steps.total(); tot > 0 {
		r.values["clover.cell_updates_per_s"] = r.cellUpdates / tot
	}
	if g := get("clover.grid"); len(g.durs) > 0 {
		r.values["clover.grid_s"] = g.total() / float64(len(g.durs))
	}
	r.values["mesh.resample_s"] = get("mesh.resample").total()
	if a := get("cpu.analyze"); len(a.durs) > 0 {
		r.values["cpu.analyze_us"] = a.median() * 1e6
	}
	r.values["trace.untraced_share"] = tr.uncovered(lo, hi)
	r.values["trace.spans"] = float64(tr.count())

	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	wall := float64(hi-lo) / 1e9
	r.logf("self time by span over %.3f s of traced wall (%.1f%% untraced):", wall, 100*r.values["trace.untraced_share"])
	for _, n := range names {
		s := st[n]
		r.logf("  %-34s calls=%-6d total=%9.4f s self=%9.4f s (%5.1f%%)", n, len(s.durs), s.total(), s.self, 100*s.self/wall)
	}
}

func main() {
	workload := flag.String("workload", "", "study, insitu or serve")
	seed := flag.Int64("seed", 1, "workload seed (generates the serve request list)")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	workloads := map[string]func(*run) error{
		"study":  runStudy,
		"insitu": runInsitu,
		"serve":  runServe,
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload study|insitu|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out, values: map[string]float64{}}
	r.logf("seed %d, window %.0f s, trace %d, GOMAXPROCS %d", r.seed, r.seconds, *trace, runtime.GOMAXPROCS(0))
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer()
	} else {
		r.values["peak_rss_mb"] = peakRSSMB()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed operation reached the reported percentile
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// spanPath is where a traced run dumps its spans.
func (r *run) spanPath() string {
	return filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
}
