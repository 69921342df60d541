package power

import "repro/internal/cpu"

// controller holds the governor's control state: the energy bank (the
// integral of the power error, in joules) and the integral trim (a slow
// watt-level correction for the residual the frequency ladder leaves).
//
// The law, per phase class:
//
//	sensitive:   cap = feedforward + bank/horizon + trim
//	opportunity: cap = min(target, knee) [+ bank/horizon while in deficit]
//
// where horizon is the estimated remaining time of the phase — the
// sensitive phase burns the whole bank down over its remaining run, so
// the job average returns to the target by the end of every sensitive
// phase instead of decaying toward it. Anti-windup is conditional
// integration on both terms: the bank is clamped to what an upcoming
// sensitive phase can physically spend (and a deficit to what a cycle
// can repay), and the trim only integrates while the cap is actually
// binding and unsaturated.
type controller struct {
	spec    cpu.Spec
	targetW float64

	bankJ float64
	trimW float64
}

// trimClampW bounds the integral trim: larger corrections are the bank's
// job, and an unbounded trim is exactly the windup the seed controller
// suffered from.
const trimClampW = 8

// trimGainWPerW is the integral-trim gain in watts of correction per
// watt of average error.
const trimGainWPerW = 0.5

// credit accrues dt seconds at powerW into the energy bank.
func (c *controller) credit(dt, powerW float64) {
	c.bankJ += (c.targetW - powerW) * dt
}

// clampBank applies the anti-windup bounds in joules: surplus beyond
// hiJ (what the sensitive phases can physically spend, see
// Governor.bankBounds) is forfeited, deficit below loJ (what a cycle of
// opportunity work at the floor recovers) is forgiven — both prevent
// the integral from ballooning during long one-class stretches and then
// ringing at the next transition.
func (c *controller) clampBank(hiJ, loJ float64) {
	c.bankJ = clamp(c.bankJ, loJ, hiJ)
}

// bankFullFrac reports how close the bank is to its spend clamp.
func (c *controller) bankFullFrac(hiJ float64) float64 {
	if hiJ <= 0 {
		return 1
	}
	return c.bankJ / hiJ
}

// sensitiveCap is the limit for a power-sensitive phase: the
// feed-forward split ffW, plus the bank burned down over the phase's
// estimated remaining horizonSec, plus the integral trim.
func (c *controller) sensitiveCap(ffW, horizonSec float64) float64 {
	w := ffW + c.bankJ/horizonSec + c.trimW
	return clamp(w, c.spec.MinCapWatts, c.spec.TDPWatts)
}

// donateFadeFrac is the bank fill fraction above which donation starts
// fading out.
const donateFadeFrac = 0.7

// opportunityCap is the limit for a power-opportunity phase: donate
// down to the learned free level, push further toward the floor while
// the bank is in deficit (repaid over repaySec), and fade donation out
// as the bank approaches its spend clamp — throttling a donor whose
// credit nobody can spend costs time for nothing. The fade is a ramp
// rather than a hard cutoff so the cap cannot flap between the knee and
// the target while the bank hovers near full.
func (c *controller) opportunityCap(kneeW, repaySec, hiJ float64) float64 {
	w := minf(c.targetW, kneeW)
	if c.bankJ < 0 {
		w += c.bankJ / repaySec
	} else if full := c.bankFullFrac(hiJ); full > donateFadeFrac {
		ramp := minf((full-donateFadeFrac)/(1-donateFadeFrac), 1)
		w += (c.targetW - w) * ramp
	}
	return clamp(w, c.spec.MinCapWatts, c.targetW)
}

// trimUpdate integrates the average-power error into the trim at a
// sensitive phase boundary. Conditional integration, by direction:
// upward only while the phase was actually throttled (raising the cap
// of an unthrottled phase cannot add power, it only winds the integral
// up) and never against a saturation rail; downward always — lowering
// a cap below the free level does bind, so a stale positive trim must
// be allowed to unwind even after the phase stops throttling.
func (c *controller) trimUpdate(avgW float64, throttled, atTDP, atFloor bool) {
	err := c.targetW - avgW
	if err > 0 && !throttled {
		return
	}
	if (atTDP && err > 0) || (atFloor && err < 0) {
		return
	}
	c.trimW = clamp(c.trimW+trimGainWPerW*err, -trimClampW, trimClampW)
}
