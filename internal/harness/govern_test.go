package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/telemetry"
)

func governConfig() *Config {
	return (&Config{
		Pool:      par.NewPool(2),
		Sizes:     []int{16},
		PhaseSize: 16,
		Images:    2,
		ImageSize: 16,
	}).Defaults()
}

func TestGovernorCompare(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.GovTimeSec <= 0 || r.UniformTimeSec <= 0 || r.EqTimeSec <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		// The budget is a hard ceiling for every policy.
		if r.GovAvgW > r.BudgetWatts*1.02 {
			t.Errorf("%.0f W: live governed average %.2f W busts the budget", r.BudgetWatts, r.GovAvgW)
		}
		if r.StaticErr != nil {
			continue
		}
		if r.StaticAvgW > r.BudgetWatts+1e-6 {
			t.Errorf("%.0f W: static plan average %.2f W over budget", r.BudgetWatts, r.StaticAvgW)
		}
		// Equal energy means equal-or-lower: the replay target is
		// capped at the static plan's achieved average.
		if r.EqAvgW > r.StaticAvgW*1.02 {
			t.Errorf("%.0f W: equal-energy replay spent %.2f W vs static %.2f W", r.BudgetWatts, r.EqAvgW, r.StaticAvgW)
		}
		// The governor must never lose badly to the policies it knows
		// how to mimic (uniform is its own transient behavior).
		if r.EqTimeSec > r.StaticTimeSec*1.05 {
			t.Errorf("%.0f W: equal-energy time %.4fs far worse than static %.4fs", r.BudgetWatts, r.EqTimeSec, r.StaticTimeSec)
		}
		if r.GovTimeSec > r.UniformTimeSec*1.05 {
			t.Errorf("%.0f W: governed time %.4fs far worse than uniform %.4fs", r.BudgetWatts, r.GovTimeSec, r.UniformTimeSec)
		}
	}
	if len(res.ClassDemand) == 0 {
		t.Error("no class demand measured")
	}
	if w, ok := res.ClassDemand[core.PowerSensitive]; ok && w <= 0 {
		t.Errorf("nonpositive sensitive demand %.1f", w)
	}

	// The sweep is cached per size.
	again, err := c.GovernorCompare(16, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("GovernorCompare did not cache per size")
	}
}

// TestGovernorCompareObservability pins the sweep's new instrumentation:
// each budget row carries the live run's flight recording and drop
// counts, and the merged attribution covers the live joules.
func TestGovernorCompareObservability(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var liveJ float64
	for _, r := range res.Rows {
		if len(r.Decisions) == 0 {
			t.Errorf("%.0f W: no cap decisions recorded", r.BudgetWatts)
		}
		if r.DecisionsDropped != 0 {
			t.Errorf("%.0f W: short run overwrote %d decisions", r.BudgetWatts, r.DecisionsDropped)
		}
		if r.SamplesDropped != 0 {
			t.Errorf("%.0f W: short run dropped %d meter samples", r.BudgetWatts, r.SamplesDropped)
		}
		liveJ += r.GovAvgW * r.GovTimeSec
	}
	if len(res.Attribution) == 0 {
		t.Fatal("sweep produced no energy attribution")
	}
	for _, row := range res.Attribution {
		if row.Stage == "(untraced)" {
			t.Errorf("traced governed pipeline attributed %.2f J to (untraced)", row.Joules)
		}
	}
	// Merged across budgets, the attributed joules must still equal the
	// measured live-run total (each phase join is exact).
	if got := obs.TotalJoules(res.Attribution); math.Abs(got-liveJ) > 0.01*liveJ {
		t.Errorf("attributed %.3f J, live runs measured %.3f J", got, liveJ)
	}

	table := GovernTable(res)
	if !strings.Contains(table, "flight recorder:") {
		t.Errorf("table missing flight recorder line:\n%s", table)
	}
	var b strings.Builder
	c.writeGovern(&b)
	if !strings.Contains(b.String(), "Where the joules went") {
		t.Errorf("report missing attribution table:\n%s", b.String())
	}
}

// TestGovernorCompareSameWithTracing pins the cap table against the
// measurement plane: a pool instrumented with a tracer, as -trace
// wires it, must govern to exactly the numbers an uninstrumented run
// gets — the governor reads only modeled counters.
func TestGovernorCompareSameWithTracing(t *testing.T) {
	plain, err := governConfig().GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := governConfig()
	c.Tracer = telemetry.New(c.Pool.Workers())
	c.Pool.Instrument(c.Tracer)
	traced, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Rows) != len(plain.Rows) {
		t.Fatalf("traced sweep has %d rows, plain %d", len(traced.Rows), len(plain.Rows))
	}
	// Every time, average power and cap, the reprogram count and the
	// number of decisions.
	row := func(r GovernRow) [12]float64 {
		return [...]float64{r.GovTimeSec, r.GovAvgW, r.EqTimeSec, r.EqAvgW,
			r.StaticTimeSec, r.StaticAvgW, r.SimCapW, r.VizCapW,
			r.UniformTimeSec, r.UniformAvgW, float64(r.Reprograms), float64(len(r.Decisions))}
	}
	for i, p := range plain.Rows {
		if got, want := row(traced.Rows[i]), row(p); got != want {
			t.Errorf("%.0f W: traced row %v, plain %v", p.BudgetWatts, got, want)
		}
	}
}

func TestGovernTableAndReportSection(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := GovernTable(res)
	for _, want := range []string{"closed-loop", "uniform", "65 W", "class demand"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	var b strings.Builder
	c.writeGovern(&b)
	if !strings.Contains(b.String(), "## Closed-loop capping") {
		t.Errorf("report section missing:\n%s", b.String())
	}
	// A config that never governed renders nothing.
	var empty strings.Builder
	governConfig().writeGovern(&empty)
	if empty.Len() != 0 {
		t.Errorf("unexpected section without a sweep: %q", empty.String())
	}
}
