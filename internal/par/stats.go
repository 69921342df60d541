package par

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// ChunkBoundsSec are the inclusive upper bounds, in seconds, of the
// chunk-seconds histogram's finite buckets: 1 µs to 1 s in decades,
// plus the implicit +Inf bucket.
var ChunkBoundsSec = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// instrumentation is the optional telemetry state of a pool: the span
// tracer (may be nil for counters-only) and the counters, each sharded
// per worker slot by obs so concurrent updates never share a cache
// line. A nil *instrumentation is the uninstrumented fast path — For
// loads the pointer once per dispatch and touches nothing else.
type instrumentation struct {
	tracer   *telemetry.Tracer
	tasks    *obs.ShardedCounter // chunks executed (own span + stolen)
	stolen   *obs.ShardedCounter // chunks claimed from another participant's span
	idleNs   *obs.ShardedCounter // time a parked worker goroutine spent waiting
	chunkSec *obs.Histogram      // chunk body wall time
	launches atomic.Int64
}

// observe records one executed chunk for participant w.
func (in *instrumentation) observe(w int, d time.Duration) {
	in.tasks.Inc(w)
	in.chunkSec.Observe(d.Seconds())
}

// Instrument attaches execution telemetry to the pool: task, steal,
// idle, and chunk-seconds counters (exposed by Stats) and, when tr is
// non-nil, spans on tr — one "par.For" span per loop launch on the
// pipeline track and one "par.chunks" span per participant per loop on
// that worker's track. tr should have at least Workers() worker tracks
// (telemetry.New(p.Workers())).
//
// Instrument may be called at most once per pool, before profiled work
// is dispatched; an uninstrumented pool pays only a single atomic
// pointer load per For.
func (p *Pool) Instrument(tr *telemetry.Tracer) {
	in := &instrumentation{
		tracer:   tr,
		tasks:    obs.NewShardedCounter(p.workers),
		stolen:   obs.NewShardedCounter(p.workers),
		idleNs:   obs.NewShardedCounter(p.workers),
		chunkSec: obs.NewHistogram(ChunkBoundsSec),
	}
	p.instr.Store(in)
	// Workers read the pointer from the shared state so a finalized Pool
	// does not pin them; start them now so idle tracking begins.
	p.ensure().instr.Store(in)
}

// Telemetry returns the tracer attached by Instrument, or nil.
func (p *Pool) Telemetry() *telemetry.Tracer {
	if in := p.instr.Load(); in != nil {
		return in.tracer
	}
	return nil
}

// PoolCounts are the pool's counters folded across worker slots.
type PoolCounts struct {
	Tasks  int64 // chunks executed
	Stolen int64 // chunks claimed from another participant's span
	IdleNs int64 // nanoseconds parked worker goroutines spent waiting
}

// PoolStats is a Stats snapshot: loop launches, the instantaneous
// dispatch-queue depth, the folded counters, and the chunk-seconds
// histogram.
type PoolStats struct {
	Launches int64
	// ActiveLoops is the number of loops on the shared dispatch queue at
	// snapshot time (see Pool.ActiveLoops); unlike the counters it is
	// populated on uninstrumented pools too.
	ActiveLoops int
	// ChunkBuckets are the chunk-seconds histogram's per-bucket counts
	// (non-cumulative, len(ChunkBoundsSec)+1, last +Inf; nil when
	// uninstrumented) and ChunkSumSec the seconds they add up to.
	ChunkBuckets []int64
	ChunkSumSec  float64

	counts PoolCounts
}

// Totals returns the counters folded across worker slots.
func (s PoolStats) Totals() PoolCounts { return s.counts }

// Stats returns a snapshot of the pool's counters. On an uninstrumented
// pool every field but ActiveLoops is zero. Safe to call while loops
// run; the snapshot is internally consistent per counter, not across
// counters.
func (p *Pool) Stats() PoolStats {
	out := PoolStats{ActiveLoops: p.ActiveLoops()}
	if in := p.instr.Load(); in != nil {
		out.Launches = in.launches.Load()
		out.ChunkBuckets = in.chunkSec.Buckets()
		out.ChunkSumSec = in.chunkSec.Sum()
		out.counts = PoolCounts{Tasks: in.tasks.Value(), Stolen: in.stolen.Value(), IdleNs: in.idleNs.Value()}
	}
	return out
}

// timedCall runs one chunk body under the latency clock.
func (t *loopTask) timedCall(lo, hi, w int) {
	t0 := time.Now()
	t.call(lo, hi, w)
	t.in.observe(w, time.Since(t0))
}

// execSerial runs one chunk on the calling goroutine as participant 0 —
// the For fast path for loops that fit in a single chunk and for
// one-worker pools. Instrumentation, when attached, accounts the chunk
// exactly as the parallel path does; panics propagate unwrapped, which
// is the historical serial-path behavior.
func execSerial(lo, hi int, body func(lo, hi, worker int), in *instrumentation) {
	if in == nil {
		body(lo, hi, 0)
		return
	}
	t0 := time.Now()
	body(lo, hi, 0)
	in.observe(0, time.Since(t0))
}
