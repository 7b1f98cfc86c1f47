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
	// Monitor, when non-nil, receives live progress (unit starts/ends,
	// cache hits, failures) for the -progress status line and the
	// -listen HTTP endpoints. Several Run calls may share one monitor.
	Monitor *Monitor
	// Recorder, when non-nil, receives one span per unit lifecycle phase
	// (the sweep flight recording; see SweepRecorder). Like Monitor it is
	// observability only, may span several Run calls, and costs nothing
	// when nil.
	Recorder *SweepRecorder
}

// UnitStat records how one unit executed.
type UnitStat struct {
	Label    string
	Wall     time.Duration
	CacheHit bool
}

// Stats summarizes one engine run.
type Stats struct {
	// Jobs is the effective worker count (after clamping to the unit count).
	Jobs int
	// Wall is the end-to-end run duration.
	Wall time.Duration
	// Units holds per-unit stats in enumeration order.
	Units []UnitStat
	// CacheHits / CacheMisses count cacheable units served from / written
	// to the cache during this run.
	CacheHits, CacheMisses int
}

// Run executes the units on cfg.Jobs workers and returns their results in
// enumeration order. On error it returns the failure of the
// lowest-indexed failing unit observed; results are then incomplete and
// must not be used. Unit results are independent slots, so the returned
// slice is identical for any worker count.
func Run[T any](ctx context.Context, cfg Config, units []Unit[T]) ([]T, Stats, error) {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(units) {
		jobs = len(units)
	}
	st := Stats{Jobs: jobs, Units: make([]UnitStat, len(units))}
	if len(units) == 0 {
		return nil, st, nil
	}
	if cfg.Monitor != nil {
		cfg.Monitor.addRun(len(units), jobs)
	}
	rec := cfg.Recorder
	base := 0
	if rec != nil {
		base = recorderAddRun(rec, units, jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(units))
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
		hits     int
		misses   int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}

	runUnit := func(wid, i int) {
		u := units[i]
		t0 := time.Now()
		slot := -1
		if cfg.Monitor != nil {
			slot = cfg.Monitor.beginUnit(u.Label)
		}
		if rec != nil {
			rec.dequeue(base+i, wid)
		}
		done := func(hit, failed bool) {
			wall := time.Since(t0)
			st.Units[i] = UnitStat{Label: u.Label, Wall: wall, CacheHit: hit}
			if slot >= 0 {
				cfg.Monitor.endUnit(slot, wall, hit, failed)
			}
		}
		cacheable := cfg.Cache != nil && u.Key != ""
		if cacheable {
			var p0 time.Duration
			if rec != nil {
				p0 = rec.since()
			}
			var v T
			hit, corrupt := cfg.Cache.Load(u.Key, &v)
			if hit {
				results[i] = v
			}
			if corrupt && slot >= 0 {
				cfg.Monitor.noteCorrupt()
			}
			if rec != nil {
				rec.probe(base+i, p0, hit)
			}
			if hit {
				mu.Lock()
				hits++
				mu.Unlock()
				if rec != nil {
					rec.finish(base+i, trace.SweepRetire)
				}
				done(true, false)
				return
			}
		}
		if ctx.Err() != nil {
			if rec != nil {
				rec.finish(base+i, trace.SweepCancel)
			}
			done(false, false)
			return
		}
		if rec != nil {
			rec.computeStart(base + i)
		}
		v, err := u.Run(ctx)
		if err != nil {
			fail(i, fmt.Errorf("%s: %w", u.Label, err))
			if rec != nil {
				rec.finish(base+i, trace.SweepFail)
			}
			done(false, true)
			return
		}
		results[i] = v
		if cacheable {
			if data, err := json.Marshal(v); err == nil {
				cfg.Cache.Put(u.Key, data)
			}
			mu.Lock()
			misses++
			mu.Unlock()
		}
		if rec != nil {
			rec.finish(base+i, trace.SweepRetire)
		}
		done(false, false)
	}

	start := time.Now()
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
	if rec != nil {
		rec.finishRun(base, len(units))
	}

	st.Wall = time.Since(start)
	st.CacheHits, st.CacheMisses = hits, misses
	if firstErr != nil {
		return nil, st, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return results, st, nil
}
