package power

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// govGauges are the governor's live series: updated on every cap
// decision and control tick, scraped whenever. All handles are
// nil-safe, so a governor without a registry pays only nil checks.
type govGauges struct {
	capW      *obs.Gauge
	bankJ     *obs.Gauge
	trimW     *obs.Gauge
	avgW      *obs.Gauge
	meterW    *obs.Gauge
	energyJ   *obs.FloatCounter
	decisions *obs.Counter
	votes     map[core.Class]*obs.Counter
}

// newGovGauges registers the governor family on r. Register at most
// one governor per registry — series names are fixed, and a second
// registration panics on the duplicate (by design: two governors
// publishing one cap gauge would be a lie).
func newGovGauges(r *obs.Registry) *govGauges {
	if r == nil {
		return nil
	}
	return &govGauges{
		capW:      r.Gauge("vizpower_governor_cap_watts", "Current effective RAPL cap programmed by the governor."),
		bankJ:     r.Gauge("vizpower_governor_bank_joules", "Energy bank balance (credit accumulated under target)."),
		trimW:     r.Gauge("vizpower_governor_trim_watts", "Integral trim component of the control law."),
		avgW:      r.Gauge("vizpower_governor_avg_watts", "Job-average power seen by the governor's meter."),
		meterW:    r.Gauge("vizpower_governor_meter_watts", "Package power over the last control interval."),
		energyJ:   r.FloatCounter("vizpower_governor_energy_joules_total", "Energy metered across governed phases."),
		decisions: r.Counter("vizpower_governor_decisions_total", "Cap decisions recorded by the flight recorder."),
		votes: map[core.Class]*obs.Counter{
			core.PowerOpportunity: r.Counter("vizpower_governor_class_votes_total",
				"Boundary classification votes by class.", obs.L("class", core.PowerOpportunity.String())),
			core.PowerSensitive: r.Counter("vizpower_governor_class_votes_total",
				"Boundary classification votes by class.", obs.L("class", core.PowerSensitive.String())),
		},
	}
}

// onDecision mirrors one flight-recorder decision into the live series.
func (gg *govGauges) onDecision(d obs.Decision, class core.Class, boundary bool) {
	if gg == nil {
		return
	}
	gg.capW.Set(d.NewWatts)
	gg.bankJ.Set(d.BankJ)
	gg.trimW.Set(d.TrimW)
	gg.decisions.Inc()
	if boundary {
		gg.votes[class].Inc()
	}
}

// onTick publishes the per-tick meter readings.
func (gg *govGauges) onTick(intervalW, avgW, energyDeltaJ float64) {
	if gg == nil {
		return
	}
	gg.meterW.Set(intervalW)
	gg.avgW.Set(avgW)
	gg.energyJ.Add(energyDeltaJ)
}

// Attribute answers "where the joules went" for a governed run with
// per-phase exactness: each PhaseReport carries its measured EnergyJ
// and the trace window [TraceLo, TraceHi) captured around the live
// phase, so obs.Attribute distributes each phase's joules over that
// phase's span self time and the per-phase rows are merged. Joules
// from phases without a trace window (segment replays, untraced
// pipelines) land in an "(untraced)" row rather than silently
// vanishing — the rows always sum to the run's measured total.
func (r *Result) Attribute(spans []telemetry.Span) []obs.StageJoules {
	var rows []obs.StageJoules
	var untracedJ float64
	for i := range r.Phases {
		p := &r.Phases[i]
		if p.TraceHi <= p.TraceLo {
			untracedJ += p.EnergyJ
			continue
		}
		stats := telemetry.Summarize(telemetry.Window(spans, p.TraceLo, p.TraceHi))
		if len(stats) == 0 {
			untracedJ += p.EnergyJ
			continue
		}
		rows = obs.MergeAttribution(rows, obs.Attribute(stats, p.EnergyJ))
	}
	if untracedJ > 0 {
		rows = obs.MergeAttribution(rows, []obs.StageJoules{{Stage: "(untraced)", Joules: untracedJ}})
	}
	return rows
}
