// Package power closes the loop the paper leaves open: instead of
// planning per-phase RAPL caps offline from a calibrated model
// (core.PlanPhaseCaps), a Governor watches the live hardware signals of
// a real pipeline run — perf-counter IPC, effective frequency, LLC miss
// rate, pool idle/steal counters, per-stage trace self time — and
// reprograms the package limit at every phase boundary plus a 100 ms
// intra-phase tick so the job-average power lands on a target while the
// power-sensitive phases keep every watt the opportunity phases can
// donate.
package power

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// Options configures a Governor.
type Options struct {
	// TargetWatts is the job-average power target (the facility budget).
	// Must be at least the cap floor; values above TDP are clamped.
	TargetWatts float64
	// IntervalSec is the intra-phase control tick (default
	// perfctr.DefaultInterval, the study's 100 ms).
	IntervalSec float64
	// GainWPerW is the integral-trim gain in watts of correction per
	// watt of average error (default 0.5).
	GainWPerW float64
	// HysteresisWatts is the dead band an intra-phase cap change must
	// exceed before the MSR is reprogrammed (default 1 W). Phase
	// boundaries reprogram unconditionally.
	HysteresisWatts float64
	// MaxSamples bounds the retained sample timeline (default
	// DefaultMaxSamples); older samples are dropped, not the run.
	MaxSamples int
	// DecisionLog bounds the flight recorder's cap-decision ring
	// (default obs.DefaultFlightRecorderSize); oldest decisions are
	// overwritten and counted, never the run blocked.
	DecisionLog int
	// Metrics, when non-nil, publishes the governor's live series (cap,
	// bank, trim, meter watts, class votes) to the registry. Register at
	// most one governor per registry: the series names are fixed.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.IntervalSec <= 0 {
		o.IntervalSec = perfctr.DefaultInterval
	}
	if o.GainWPerW <= 0 {
		o.GainWPerW = 0.5
	}
	if o.HysteresisWatts <= 0 {
		o.HysteresisWatts = 1
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
}

// Segment is one labeled phase execution: what the governor recorded
// from a live run, and what RunSegments replays. Labels identify the
// recurring phase ("simulate", "visualize") — the governor's memory is
// per label.
type Segment struct {
	Label string
	Exec  cpu.Execution
}

// PhaseReport is the governed outcome of one phase instance.
type PhaseReport struct {
	// Cycle is this label's visit number (1-based).
	Cycle int
	Label string
	// Class and Score are the online classification at phase end.
	Class core.Class
	Score float64
	// CapStartWatts is the boundary decision, CapEndWatts the effective
	// limit when the phase finished.
	CapStartWatts, CapEndWatts float64
	TimeSec                    float64
	EnergyJ                    float64
	AvgPowerWatts              float64
	// Last-sample counter readings.
	EffFreqGHz, IPC, LLCMissRate float64
	// Live pipeline signals (zero on segment replays).
	PoolIdleFrac, StealFrac, SelfTimeSec, WallSec float64
	// DemandWatts is the label's measured demand estimate so far:
	// the unthrottled peak when DemandIsFree, else the throttled peak
	// (a lower bound).
	DemandWatts  float64
	DemandIsFree bool
	Ticks        int
	// TraceLo and TraceHi bound the tracer window captured around the
	// live phase (tracer clock, see telemetry.Window); both zero when
	// the phase ran untraced (segment replays). Result.Attribute joins
	// this window's span self time with EnergyJ.
	TraceLo, TraceHi int64
}

// Result is a governed run.
type Result struct {
	TargetWatts   float64
	TimeSec       float64
	EnergyJ       float64
	AvgPowerWatts float64
	FinalCapWatts float64
	// Reprograms counts RAPL limit writes that changed the register.
	Reprograms int
	// Samples is the retained measurement timeline (newest MaxSamples);
	// SamplesDropped counts evicted older samples.
	Samples        []perfctr.Sample
	SamplesDropped int
	// Decisions is the flight recorder's dump, oldest first;
	// DecisionsDropped counts decisions its bounded ring overwrote.
	Decisions        []obs.Decision
	DecisionsDropped int64
	Phases           []PhaseReport
	// Segments are the labeled executions the run governed, replayable
	// with RunSegments.
	Segments []Segment
}

// ClassDemand returns the time-weighted measured demand per phase
// class — the calibration the serve admission controller consumes in
// place of spec-TDP guesses.
func (r *Result) ClassDemand() map[core.Class]float64 {
	type acc struct{ wJ, t float64 }
	sums := map[core.Class]acc{}
	for _, p := range r.Phases {
		if p.DemandWatts <= 0 || p.TimeSec <= 0 {
			continue
		}
		a := sums[p.Class]
		a.wJ += p.DemandWatts * p.TimeSec
		a.t += p.TimeSec
		sums[p.Class] = a
	}
	out := make(map[core.Class]float64, len(sums))
	for c, a := range sums {
		out[c] = a.wJ / a.t
	}
	return out
}

// Governor is the closed-loop power controller. One Governor governs
// one job: its bank, trim, and per-label memory carry across phases.
type Governor struct {
	pkg  *rapl.Package
	spec cpu.Spec
	opt  Options

	m      *perfctr.Meter
	ctrl   controller
	ring   *sampleRing
	flight *obs.FlightRecorder
	gauges *govGauges

	states map[string]*phaseState
	order  []string

	reprograms int
	phases     []PhaseReport
	segments   []Segment
}

// New builds a Governor targeting opt.TargetWatts job-average power on
// pkg and programs the initial limit (the target — indistinguishable
// from the uniform-cap policy until the first classifications land).
func New(pkg *rapl.Package, opt Options) (*Governor, error) {
	spec := pkg.Spec()
	if opt.TargetWatts < spec.MinCapWatts {
		return nil, fmt.Errorf("power: target %.0f W below the %.0f W cap floor", opt.TargetWatts, spec.MinCapWatts)
	}
	if opt.TargetWatts > spec.TDPWatts {
		opt.TargetWatts = spec.TDPWatts
	}
	opt.defaults()
	m, err := perfctr.NewMeter(pkg)
	if err != nil {
		return nil, err
	}
	g := &Governor{
		pkg:    pkg,
		spec:   spec,
		opt:    opt,
		m:      m,
		ctrl:   controller{spec: spec, targetW: opt.TargetWatts, gain: opt.GainWPerW},
		ring:   newSampleRing(opt.MaxSamples),
		flight: obs.NewFlightRecorder(opt.DecisionLog),
		gauges: newGovGauges(opt.Metrics),
		states: make(map[string]*phaseState),
	}
	before := g.pkg.EffectiveCapWatts()
	if err := g.pkg.SetLimitWatts(opt.TargetWatts); err != nil {
		return nil, err
	}
	g.record(obs.Decision{
		Phase:        "(startup)",
		Class:        core.PowerSensitive.String(),
		FeedforwardW: opt.TargetWatts,
		OldWatts:     before,
		NewWatts:     g.pkg.EffectiveCapWatts(),
		Reason:       "init: program target as opening cap",
	}, core.PowerSensitive, false)
	return g, nil
}

// record logs one cap decision to the flight recorder and mirrors it
// into the live gauges.
func (g *Governor) record(d obs.Decision, class core.Class, boundary bool) {
	d.TimeSec = g.m.NowSec()
	g.flight.Record(d)
	g.gauges.onDecision(d, class, boundary)
}

// decide programs a new cap and flight-records the transition with the
// control-law components that produced it.
func (g *Governor) decide(st *phaseState, want float64, reason string, boundary bool) error {
	old := g.pkg.EffectiveCapWatts()
	if err := g.program(want); err != nil {
		return err
	}
	g.record(obs.Decision{
		Cycle:        st.visits + 1,
		Phase:        st.label,
		Class:        st.class.String(),
		Score:        st.score,
		FeedforwardW: g.horizons().ffW,
		BankJ:        g.ctrl.bankJ,
		TrimW:        g.ctrl.trimW,
		OldWatts:     old,
		NewWatts:     g.pkg.EffectiveCapWatts(),
		Reason:       reason,
	}, st.class, boundary)
	return nil
}

// Warm seeds the governor's per-label memory — class, score, duration,
// knee, demand — from a prior run's phase reports, so a re-run of the
// same job (or a budget change mid-job) starts from the learned state
// instead of re-paying the discovery transient. The static planner gets
// its profile from recorded segments; Warm is the closed loop's
// equivalent. Control state (bank, trim) is not carried: it is specific
// to the old target.
func (g *Governor) Warm(prior *Result) {
	if prior == nil {
		return
	}
	for i := range prior.Phases {
		p := &prior.Phases[i]
		st := g.state(p.Label)
		st.class = p.Class
		st.score = p.Score
		if p.TimeSec > 0 {
			st.durSec = p.TimeSec
			st.powerW = p.AvgPowerWatts
		}
		if p.DemandIsFree {
			// The unthrottled peak is the demand itself; a cap one watt
			// above it is known not to bind.
			st.demandW = p.DemandWatts
			st.kneeW = clamp(p.DemandWatts+1, g.spec.MinCapWatts, g.opt.TargetWatts)
		} else if p.DemandWatts > st.throttledW {
			st.throttledW = p.DemandWatts
		}
	}
}

// state returns the per-label memory, creating it on first sight. An
// unseen phase defaults to power sensitive: it is governed like the
// uniform-cap baseline (cap ≈ target) until the counters say otherwise,
// so a misprediction costs nothing worse than the naive policy.
func (g *Governor) state(label string) *phaseState {
	if st, ok := g.states[label]; ok {
		return st
	}
	st := &phaseState{
		label: label,
		class: core.PowerSensitive,
		kneeW: g.opt.TargetWatts,
	}
	g.states[label] = st
	g.order = append(g.order, label)
	return st
}

// horizons aggregates the per-label memory into the controller's
// working quantities, all scaled to one representative cycle of phases.
// Labels are weighted by visit count so orderings that visit one class
// more often than another (hhcc blocks, skewed mixes) are accounted at
// their true duty ratio, not as if the mix were one-to-one.
type horizons struct {
	// ffW is the feed-forward sensitive cap — the online re-derivation
	// of the static planner's split: the cap at which the sensitive
	// phases spend exactly the per-cycle energy the opportunity phases
	// leave unused,
	//
	//	ff = (target·Σ_all sec − Σ_opp power·sec) / Σ_sens sec.
	//
	// Until every known label has completed a visit it stays at the
	// target — the uniform-cap opening book. The bank and trim then
	// only carry residuals (ladder quantization, estimate error)
	// instead of having to integrate their way to the whole split.
	ffW float64
	// hiJ bounds the bank above by what one cycle of sensitive phases
	// can physically spend over the target: per label, measured demand
	// minus target (optimistically TDP headroom until the label has
	// drawn any power at all) times its per-cycle seconds. The throttled
	// peak serves as the demand lower bound — the conservative side for
	// a spend clamp, since credit beyond it would fund power no phase
	// has shown it can draw. loJ bounds the deficit at what two full
	// cycles run at the floor could repay.
	hiJ, loJ float64
	// repaySec is the opportunity seconds per cycle (the
	// donation-repayment horizon); cycleSec the total seconds per cycle
	// (the bank burn-down horizon).
	repaySec, cycleSec float64
}

func (g *Governor) horizons() horizons {
	h := horizons{ffW: g.opt.TargetWatts}
	maxV := 1
	for _, label := range g.order {
		if st := g.states[label]; st.visits > maxV {
			maxV = st.visits
		}
	}
	var budgetJ, sensSec float64
	complete := len(g.order) > 0
	for _, label := range g.order {
		st := g.states[label]
		if st.durSec <= 0 {
			complete = false
			continue
		}
		sec := st.durSec * float64(st.visits) / float64(maxV)
		h.cycleSec += sec
		if st.class == core.PowerSensitive {
			sensSec += sec
			head := g.spec.TDPWatts - g.opt.TargetWatts
			if d := st.measuredDemandW(); d > 0 {
				head = d - g.opt.TargetWatts
			}
			if head > 0 {
				h.hiJ += head * sec
			}
		} else {
			h.repaySec += sec
			budgetJ -= st.powerW * sec
		}
	}
	if complete && sensSec > 0 {
		budgetJ += g.opt.TargetWatts * h.cycleSec
		h.ffW = clamp(budgetJ/sensSec, g.spec.MinCapWatts, g.spec.TDPWatts)
	}
	// Before any duration estimate exists, one-second horizons keep the
	// clamps meaningful from the first tick.
	if h.hiJ <= 0 && len(g.phases) == 0 {
		h.hiJ = g.spec.TDPWatts - g.opt.TargetWatts
	}
	if h.repaySec <= 0 {
		h.repaySec = 1
	}
	if h.cycleSec <= 0 {
		h.cycleSec = 1
	}
	h.loJ = -(g.opt.TargetWatts - g.spec.MinCapWatts) * 2 * h.cycleSec
	return h
}

// desiredCap is the control law: a sensitive phase gets the
// feed-forward split plus the bank spread over one cycle of phases plus
// the trim; an opportunity phase donates down to its learned knee
// (deeper while in deficit, not at all once the bank is full).
func (g *Governor) desiredCap(st *phaseState) float64 {
	h := g.horizons()
	if st.class == core.PowerSensitive {
		return g.ctrl.sensitiveCap(h.ffW, maxf(h.cycleSec, g.opt.IntervalSec))
	}
	return g.ctrl.opportunityCap(st.kneeW, maxf(h.repaySec, g.opt.IntervalSec), h.hiJ)
}

// program writes the limit register, counting only writes that changed
// the quantized value.
func (g *Governor) program(w float64) error {
	w = clamp(w, g.spec.MinCapWatts, g.spec.TDPWatts)
	before := g.pkg.LimitWatts()
	if err := g.pkg.SetLimitWatts(w); err != nil {
		return err
	}
	if g.pkg.LimitWatts() != before {
		g.reprograms++
	}
	return nil
}

// maxTicks bounds the interval ticks of one phase, so a phase that
// never finishes fails the run instead of hanging it.
const maxTicks = 1_000_000

// governPhase advances one labeled execution through the governed tick
// engine: at each interval the package limit governs the operating
// point, the counters advance, the sampler reads them back, the
// classifier and controller update, and the cap is retuned behind the
// hysteresis band.
func (g *Governor) governPhase(label string, e cpu.Execution, ls liveStats) (PhaseReport, error) {
	st := g.state(label)

	// Boundary decision: reprogram unconditionally from the label's
	// remembered class and the current bank.
	capW := g.desiredCap(st)
	if err := g.decide(st, capW, "boundary", true); err != nil {
		return PhaseReport{}, err
	}

	rep := PhaseReport{
		Label:         label,
		CapStartWatts: g.pkg.EffectiveCapWatts(),
		PoolIdleFrac:  ls.idleFrac,
		StealFrac:     ls.stealFrac,
		SelfTimeSec:   ls.selfSec,
		WallSec:       ls.wallSec,
		TraceLo:       ls.traceLo,
		TraceHi:       ls.traceHi,
	}

	var last perfctr.Sample
	var sawThrottle, sawTDP, sawFloor bool
	progress := 0.0
	for progress < 1-1e-12 {
		r := g.pkg.Govern(e)
		if r.TimeSec <= 0 {
			break
		}
		dt := (1 - progress) * r.TimeSec
		if dt > g.opt.IntervalSec {
			dt = g.opt.IntervalSec
		}
		frac := dt / r.TimeSec
		g.m.Advance(r, dt,
			float64(e.Instructions)*frac,
			float64(e.LLCRefs)*frac,
			float64(e.LLCMisses)*frac)
		s, err := g.m.Sample()
		if err != nil {
			return rep, fmt.Errorf("power: %s: %w", label, err)
		}
		g.ring.push(s)
		progress += frac
		rep.TimeSec += dt
		rep.EnergyJ += r.PowerWatts * dt
		rep.Ticks++
		last = s
		g.gauges.onTick(r.PowerWatts, g.m.AvgWatts(), r.PowerWatts*dt)

		effCap := g.pkg.EffectiveCapWatts()
		g.ctrl.credit(dt, r.PowerWatts)
		hb := g.horizons()
		g.ctrl.clampBank(hb.hiJ, hb.loJ)
		st.observe(s, g.spec, effCap, ls.idleFrac)
		if r.Throttled {
			sawThrottle = true
		}
		if effCap >= g.spec.TDPWatts-0.5 {
			sawTDP = true
		}
		if effCap <= g.spec.MinCapWatts+0.5 {
			sawFloor = true
		}

		if rep.Ticks >= maxTicks {
			return rep, fmt.Errorf("power: %s: phase did not finish within %d ticks", label, maxTicks)
		}

		// Intra-phase retune behind the hysteresis band.
		want := g.desiredCap(st)
		if abs(want-capW) >= g.opt.HysteresisWatts {
			if err := g.decide(st, want, "retune", false); err != nil {
				return rep, err
			}
			capW = want
		}
	}

	if rep.TimeSec > 0 {
		rep.AvgPowerWatts = rep.EnergyJ / rep.TimeSec
	}
	st.noteDuration(rep.TimeSec, rep.AvgPowerWatts)
	st.timeSec += rep.TimeSec
	st.energyJ += rep.EnergyJ
	if st.class == core.PowerSensitive {
		// Trim on the job-average residual the bank could not remove —
		// conditional integration keeps it frozen while the cap is not
		// binding or is pinned at a rail.
		g.ctrl.trimUpdate(g.m.AvgWatts(), sawThrottle, sawTDP, sawFloor)
	}

	rep.Cycle = st.visits
	rep.Class = st.class
	rep.Score = st.score
	rep.CapEndWatts = g.pkg.EffectiveCapWatts()
	rep.EffFreqGHz = last.EffFreqGHz
	rep.IPC = last.IPC
	rep.LLCMissRate = last.LLCMissRate
	rep.DemandWatts = st.measuredDemandW()
	rep.DemandIsFree = st.demandW > 0
	g.phases = append(g.phases, rep)
	g.segments = append(g.segments, Segment{Label: label, Exec: e})
	return rep, nil
}

// liveStats are the signals captured around a real pipeline phase.
type liveStats struct {
	idleFrac  float64
	stealFrac float64
	selfSec   float64
	wallSec   float64
	// traceLo/traceHi bound the phase's spans on the tracer clock
	// (both zero when untraced).
	traceLo, traceHi int64
}

// capturePhase runs one pipeline phase and snapshots the pool counters
// and trace window around it.
func capturePhase(pipe *core.Pipeline, run func() (core.PhaseResult, error)) (core.PhaseResult, liveStats, error) {
	pre := pipe.Pool.Stats().Totals()
	tr := pipe.Tracer
	var lo int64
	if tr != nil {
		lo = tr.Now()
	}
	t0 := time.Now()
	res, err := run()
	ls := liveStats{wallSec: time.Since(t0).Seconds()}
	if err != nil {
		return res, ls, err
	}
	post := pipe.Pool.Stats().Totals()
	if n := pipe.Pool.Workers(); n > 0 && ls.wallSec > 0 {
		idle := float64(post.IdleNs-pre.IdleNs) / 1e9
		ls.idleFrac = clamp(idle/(ls.wallSec*float64(n)), 0, 1)
	}
	if dTasks := post.Tasks - pre.Tasks; dTasks > 0 {
		ls.stealFrac = float64(post.Stolen-pre.Stolen) / float64(dTasks)
	}
	if tr != nil {
		ls.traceLo, ls.traceHi = lo, tr.Now()
		spans := telemetry.Window(tr.Spans(), ls.traceLo, ls.traceHi)
		for _, st := range telemetry.Summarize(spans) {
			ls.selfSec += st.SelfSec()
		}
	}
	return res, ls, nil
}

// Run governs cycles simulate→visualize cycles of a real pipeline: each
// phase's Go work executes for real (producing its operation profile,
// pool counters, and trace spans), then advances through the governed
// tick engine where every cap decision sees only already-collected
// measurements. The recorded segments in the result allow bit-exact
// policy replays over the same work.
func (g *Governor) Run(pipe *core.Pipeline, cycles int) (Result, error) {
	if pipe == nil {
		return g.finish(), fmt.Errorf("power: nil pipeline")
	}
	if cycles <= 0 {
		cycles = 1
	}
	for i := 0; i < cycles; i++ {
		res, ls, err := capturePhase(pipe, pipe.Simulate)
		if err != nil {
			return g.finish(), err
		}
		if _, err := g.governPhase("simulate", res.Exec, ls); err != nil {
			return g.finish(), err
		}
		res, ls, err = capturePhase(pipe, pipe.Visualize)
		if err != nil {
			return g.finish(), err
		}
		if _, err := g.governPhase("visualize", res.Exec, ls); err != nil {
			return g.finish(), err
		}
	}
	return g.finish(), nil
}

// RunSegments replays recorded labeled executions through the same
// governed engine — the equal-energy comparison harness uses this to
// re-govern one recorded workload under different targets.
func (g *Governor) RunSegments(segs []Segment) (Result, error) {
	if len(segs) == 0 {
		return g.finish(), fmt.Errorf("power: no segments")
	}
	for _, seg := range segs {
		if _, err := g.governPhase(seg.Label, seg.Exec, liveStats{}); err != nil {
			return g.finish(), err
		}
	}
	return g.finish(), nil
}

func (g *Governor) finish() Result {
	return Result{
		TargetWatts:      g.opt.TargetWatts,
		TimeSec:          g.m.NowSec(),
		EnergyJ:          g.m.EnergyJ(),
		AvgPowerWatts:    g.m.AvgWatts(),
		FinalCapWatts:    g.pkg.EffectiveCapWatts(),
		Reprograms:       g.reprograms,
		Samples:          g.ring.samples(),
		SamplesDropped:   g.ring.dropped(),
		Decisions:        g.flight.Decisions(),
		DecisionsDropped: g.flight.Dropped(),
		Phases:           g.phases,
		Segments:         g.segments,
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
