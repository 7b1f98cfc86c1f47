package engine

import (
	"sync"
	"time"

	"vanguard/internal/trace"
)

// SweepRecorder is the engine's ledger: every engine run books each
// unit's lifecycle (enqueued → dequeued → cache probe → compute →
// terminal) in one, its own when Config.Recorder is nil. Everything else
// the engine reports is a view of these records: the run's Stats, the
// engine section of a -json report (EngineReport), the flight recording
// (Report, the -sweep-trace and -sweep-chrome artifacts) and a Monitor's
// live progress. One recorder may span several engine runs (a CLI
// invocation enqueues unit sets as it goes); unit indexes are global
// across runs in enumeration order, so the span ordering of a recording
// is deterministic even though wall times vary.
//
// All methods are safe for concurrent use by the worker pool and by
// readers.
type SweepRecorder struct {
	mu      sync.Mutex
	start   time.Time
	workers int
	units   []unitRec
}

// unitRec is the mutable per-unit lifecycle record; all times are
// offsets from the recorder's creation. A unit is queued until
// dequeued (worker >= 0), active until it has an outcome, and done
// after.
type unitRec struct {
	label, key string
	enq        time.Duration
	deq        time.Duration
	probeStart time.Duration
	probeEnd   time.Duration
	runStart   time.Duration
	end        time.Duration
	worker     int // -1 until dequeued
	probed     bool
	hit        bool
	corrupt    bool // the probe found an entry that did not decode
	ran        bool
	outcome    string
}

// computed reports whether the unit was computed to completion: the only
// units whose compute time feeds the latency histogram and the EWMA
// (hits measure the cache; failures and cancels did not finish the work).
func (u *unitRec) computed() bool { return u.ran && u.outcome == trace.SweepRetire }

// NewSweepRecorder returns an empty recorder; its creation instant is
// the zero of every recorded timestamp.
func NewSweepRecorder() *SweepRecorder {
	return &SweepRecorder{start: time.Now()}
}

// since is the recorder clock: elapsed time since creation. start is
// immutable, so reading the clock takes no lock.
func (r *SweepRecorder) since() time.Duration { return time.Since(r.start) }

// recorderAddRun registers one engine run's units (all enqueued now),
// returning the global base index of the run's unit 0. The clock is read
// under the lock, so enqueue times never decrease with the index.
// Generic because it reads Unit[T] metadata; a method cannot be.
func recorderAddRun[T any](r *SweepRecorder, units []Unit[T], jobs int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.since()
	base := len(r.units)
	for i := range units {
		r.units = append(r.units, unitRec{
			label:  units[i].Label,
			key:    units[i].Key,
			enq:    now,
			worker: -1,
		})
	}
	if jobs > r.workers {
		r.workers = jobs
	}
	return base
}

// dequeue marks unit u (global index) leaving the queue onto worker wid.
func (r *SweepRecorder) dequeue(u, wid int) {
	now := r.since()
	r.mu.Lock()
	rec := &r.units[u]
	rec.deq = now
	rec.worker = wid
	r.mu.Unlock()
}

// probe records the unit's cache probe: it began at start (on the
// recorder clock) and resolved now as a hit, a miss or a corrupt miss.
func (r *SweepRecorder) probe(u int, start time.Duration, hit, corrupt bool) {
	now := r.since()
	r.mu.Lock()
	rec := &r.units[u]
	rec.probed = true
	rec.hit = hit
	rec.corrupt = corrupt
	rec.probeStart = start
	rec.probeEnd = now
	r.mu.Unlock()
}

// computeStart marks the unit entering its build/sim compute phase.
func (r *SweepRecorder) computeStart(u int) {
	now := r.since()
	r.mu.Lock()
	rec := &r.units[u]
	rec.ran = true
	rec.runStart = now
	r.mu.Unlock()
}

// finish records the unit's terminal outcome (trace.SweepRetire,
// SweepFail or SweepCancel).
func (r *SweepRecorder) finish(u int, outcome string) {
	now := r.since()
	r.mu.Lock()
	rec := &r.units[u]
	rec.outcome = outcome
	rec.end = now
	r.mu.Unlock()
}

// finishRun closes out one engine run: units [base, base+n) still
// without a terminal outcome were drained by a sibling failure and
// cancel now, so every enqueued unit ends with exactly one terminal —
// the conservation invariant trace.SweepReport.Check enforces.
func (r *SweepRecorder) finishRun(base, n int) {
	now := r.since()
	r.mu.Lock()
	for u := base; u < base+n; u++ {
		rec := &r.units[u]
		if rec.outcome == "" {
			rec.outcome = trace.SweepCancel
			rec.end = now
		}
	}
	r.mu.Unlock()
}

// snapshot copies the records out under the lock, with the worker
// high-water and the clock, so views compute without holding it.
func (r *SweepRecorder) snapshot() ([]unitRec, int, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]unitRec(nil), r.units...), r.workers, r.since()
}

// stats derives the Stats of the n units from base, one engine run.
func (r *SweepRecorder) stats(base, n, jobs int) Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return statsOf(r.units[base:base+n], jobs)
}

// statsOf derives Stats from records: each finished unit's wall time from
// dequeue to terminal, the probes' hits and misses, and as Wall the time
// during which at least one unit was in the engine (the union of the
// units' enqueue-to-terminal intervals, so several runs add up).
func statsOf(recs []unitRec, jobs int) Stats {
	st := Stats{Jobs: jobs, Units: make([]UnitStat, len(recs))}
	var from, to time.Duration
	for i := range recs {
		u := &recs[i]
		st.Units[i] = UnitStat{Label: u.label, CacheHit: u.hit}
		if u.probed {
			if u.hit {
				st.CacheHits++
			} else {
				st.CacheMisses++
			}
		}
		if u.outcome == "" {
			continue // still in the engine: no wall time yet
		}
		if u.worker >= 0 {
			st.Units[i].Wall = u.end - u.deq
		}
		// Enqueue times never decrease with the index (recorderAddRun).
		if u.enq > to {
			st.Wall += to - from
			from, to = u.enq, u.end
		} else if u.end > to {
			to = u.end
		}
	}
	st.Wall += to - from
	return st
}

// EngineReport renders the recording as the engine section of a -json
// report: the worker high-water, the probes' hits and misses, the wall
// time units were in the engine, and every unit's wall time in
// enumeration order.
func (r *SweepRecorder) EngineReport() *trace.EngineReport {
	r.mu.Lock()
	st := statsOf(r.units, r.workers)
	r.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	e := &trace.EngineReport{
		Jobs: st.Jobs, Units: len(st.Units),
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		WallMS: ms(st.Wall),
	}
	for _, u := range st.Units {
		e.UnitWall = append(e.UnitWall, trace.EngineUnit{Label: u.Label, WallMS: ms(u.Wall), CacheHit: u.CacheHit})
	}
	return e
}

// Report renders the recording as a trace.SweepReport: spans in unit
// enumeration order with a fixed phase order (unit, queue, probe,
// compute) per unit, queue-delay and unit-latency histograms, and the
// wasted-work total (compute time of failed units plus queue residency
// of cancelled units). Span boundaries quantize to microseconds through
// a single monotonic floor, so the nesting invariant survives rounding.
func (r *SweepRecorder) Report() *trace.SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	us := func(d time.Duration) int64 { return int64(d / time.Microsecond) }
	s := &trace.SweepReport{
		Schema:      trace.SweepSchema,
		Workers:     r.workers,
		Units:       len(r.units),
		QueueDelay:  &trace.Hist{},
		UnitLatency: &trace.Hist{},
	}
	for u := range r.units {
		rec := &r.units[u]
		end := rec.end
		outcome := rec.outcome
		if outcome == "" {
			// Report taken mid-run: charge the unit as cancelled-at-now so
			// the recording still satisfies Check.
			outcome = trace.SweepCancel
			end = r.since()
		}
		if us(end) > s.WallUS {
			s.WallUS = us(end)
		}
		s.Spans = append(s.Spans, trace.SweepSpan{
			Unit: u, Label: rec.label, Phase: trace.SweepPhaseUnit,
			Worker: rec.worker, StartUS: us(rec.enq), DurUS: us(end) - us(rec.enq),
			Outcome: outcome, Key: rec.key,
		})
		deq := rec.deq
		if rec.worker < 0 {
			deq = end // never dequeued: queued for its whole life
		}
		qw := us(deq) - us(rec.enq)
		s.QueueWaitUS += qw
		s.QueueDelay.Observe(qw)
		s.Spans = append(s.Spans, trace.SweepSpan{
			Unit: u, Label: rec.label, Phase: trace.SweepPhaseQueue,
			Worker: -1, StartUS: us(rec.enq), DurUS: qw,
		})
		switch outcome {
		case trace.SweepFail:
			s.Failed++
		case trace.SweepCancel:
			s.Cancelled++
			s.WastedUS += qw
		}
		if rec.probed {
			po := trace.SweepMiss
			if rec.hit {
				po = trace.SweepHit
				s.CacheHits++
			} else {
				s.CacheMisses++
			}
			s.Spans = append(s.Spans, trace.SweepSpan{
				Unit: u, Label: rec.label, Phase: trace.SweepPhaseProbe,
				Worker: rec.worker, StartUS: us(rec.probeStart),
				DurUS: us(rec.probeEnd) - us(rec.probeStart), Outcome: po,
			})
		}
		if rec.ran {
			cw := us(end) - us(rec.runStart)
			s.Spans = append(s.Spans, trace.SweepSpan{
				Unit: u, Label: rec.label, Phase: trace.SweepPhaseCompute,
				Worker: rec.worker, StartUS: us(rec.runStart), DurUS: cw,
			})
			if rec.computed() {
				s.UnitLatency.Observe(cw)
			} else if outcome == trace.SweepFail {
				s.WastedUS += cw
			}
		}
	}
	return s
}
