// Package engine executes experiment units — self-describing, independent
// pieces of simulation work — on a bounded worker pool with deterministic
// aggregation and an optional content-keyed on-disk result cache.
//
// The harness enumerates every (benchmark, input, width, binary)
// simulation of the paper's evaluation as one Unit; the engine schedules
// them across workers, propagates the first error (cancelling the feed of
// further units), and returns results indexed by enumeration order, so
// downstream tables and JSON reports are byte-stable regardless of how
// the units interleaved at run time.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vanguard/internal/trace"
)

// Unit is one schedulable piece of work producing a T.
type Unit[T any] struct {
	// Label identifies the unit in telemetry (unique within a run).
	Label string
	// Key is the content key for the run cache: two units with equal keys
	// must compute equal results. Empty disables caching for this unit
	// (e.g. work that depends on an un-hashable closure or attaches
	// side-effecting trace sinks).
	Key string
	// Run computes the result. The context is cancelled after the first
	// unit error; in-flight units run to completion, but no further units
	// start.
	Run func(ctx context.Context) (T, error)
}

// Config is the execution policy of one engine run.
type Config struct {
	// Jobs bounds the worker pool; <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, short-circuits units whose Key has a stored
	// result and stores newly computed ones. Results round-trip through
	// JSON, so T must marshal losslessly enough for downstream use.
	Cache *Cache
	// Recorder is the ledger the run books every unit's lifecycle in (see
	// SweepRecorder); nil books it in a recorder private to the run. One
	// recorder may span several Run calls, and a Monitor built over it
	// shows them live. It never changes scheduling or results.
	Recorder *SweepRecorder
}

// UnitStat records how one unit executed.
type UnitStat struct {
	Label    string
	Wall     time.Duration
	CacheHit bool
}

// Stats summarizes one engine run. Run derives it from the run's
// records in its recorder.
type Stats struct {
	// Jobs is the effective worker count (after clamping to the unit count).
	Jobs int
	// Wall is the end-to-end run duration: enqueue to the last terminal.
	Wall time.Duration
	// Units holds per-unit stats in enumeration order.
	Units []UnitStat
	// CacheHits / CacheMisses count the units whose run-cache probe found
	// / did not find a usable entry.
	CacheHits, CacheMisses int
}

// Run executes the units on cfg.Jobs workers and returns their results in
// enumeration order. On error it returns the failure of the
// lowest-indexed failing unit; results are then incomplete and must not
// be used. A failure cancels only the units after it, so the reported
// failure does not depend on the worker count or on which failure
// happened first. Unit results are independent slots, so the returned
// slice is identical for any worker count.
func Run[T any](ctx context.Context, cfg Config, units []Unit[T]) ([]T, Stats, error) {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(units) {
		jobs = len(units)
	}
	if len(units) == 0 {
		return nil, Stats{Jobs: jobs}, nil
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = &SweepRecorder{start: time.Now(), units: make([]unitRec, 0, len(units))}
	}
	base := recorderAddRun(rec, units, jobs)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(units))
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	// failedBefore reports whether a unit before i has failed. Units are
	// fed in order, so every unit before a failure has been dequeued and
	// still runs: the lowest-indexed failure is always found.
	failedBefore := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil && firstIdx < i
	}

	runUnit := func(wid, i int) {
		u, id := units[i], base+i
		rec.dequeue(id, wid)
		cacheable := cfg.Cache != nil && u.Key != ""
		if cacheable {
			p0 := rec.since()
			var v T
			hit, corrupt := cfg.Cache.Load(u.Key, &v)
			rec.probe(id, p0, hit, corrupt)
			if hit {
				results[i] = v
				rec.finish(id, trace.SweepRetire)
				return
			}
		}
		if ctx.Err() != nil && (parent.Err() != nil || failedBefore(i)) {
			rec.finish(id, trace.SweepCancel)
			return
		}
		rec.computeStart(id)
		v, err := u.Run(ctx)
		if err != nil {
			fail(i, fmt.Errorf("%s: %w", u.Label, err))
			rec.finish(id, trace.SweepFail)
			return
		}
		results[i] = v
		if cacheable {
			if data, err := json.Marshal(v); err == nil {
				cfg.Cache.Put(u.Key, data)
			}
		}
		rec.finish(id, trace.SweepRetire)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	worker := func(wid int) {
		defer wg.Done()
		for i := range idx {
			runUnit(wid, i)
		}
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go worker(w)
	}
feed:
	for i := range units {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// A failure drains the units never fed to a worker: they cancel now.
	rec.finishRun(base, len(units))

	st := rec.stats(base, len(units), jobs)
	if firstErr != nil {
		return nil, st, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return results, st, nil
}
