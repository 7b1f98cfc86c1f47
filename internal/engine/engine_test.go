package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vanguard/internal/trace"
)

// TestRunOrder: results come back in enumeration order no matter how the
// scheduler interleaves the workers.
func TestRunOrder(t *testing.T) {
	const n = 50
	var units []Unit[int]
	for i := 0; i < n; i++ {
		units = append(units, Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run:   func(context.Context) (int, error) { return i * i, nil },
		})
	}
	for _, jobs := range []int{1, 4, 16} {
		res, st, err := Run(context.Background(), Config{Jobs: jobs}, units)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(res) != n || len(st.Units) != n {
			t.Fatalf("jobs=%d: got %d results, %d unit stats", jobs, len(res), len(st.Units))
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("jobs=%d: res[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
		for i, u := range st.Units {
			if u.Label != units[i].Label {
				t.Fatalf("jobs=%d: stats[%d] = %q, want %q", jobs, i, u.Label, units[i].Label)
			}
		}
	}
}

// TestRunFirstError: the lowest-indexed failure wins regardless of which
// worker sees its error first, carries its unit's label, and later units
// are cancelled.
func TestRunFirstError(t *testing.T) {
	errA := errors.New("unit 3 failed")
	var ran atomic.Int64
	var units []Unit[int]
	for i := 0; i < 100; i++ {
		units = append(units, Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (int, error) {
				ran.Add(1)
				if i == 3 {
					return 0, errA
				}
				return i, nil
			},
		})
	}
	_, _, err := Run(context.Background(), Config{Jobs: 4}, units)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want %v", err, errA)
	}
	if want := "u3: unit 3 failed"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	if got := ran.Load(); got == 100 {
		t.Logf("all 100 units ran before cancellation (slow cancel, but legal)")
	}
}

// TestRunErrorAttribution: with several failing units, the lowest-indexed
// failure wins even when a later unit fails first, and the error carries
// the failing unit's own label.
func TestRunErrorAttribution(t *testing.T) {
	errLow := errors.New("low unit blew up")
	errHigh := errors.New("high unit blew up")
	mk := func(waitHigh bool) []Unit[int] {
		highFailed := make(chan struct{})
		var units []Unit[int]
		for i := 0; i < 4; i++ {
			units = append(units, Unit[int]{
				Label: fmt.Sprintf("u%d", i),
				Run: func(context.Context) (int, error) {
					switch i {
					case 1:
						if waitHigh {
							select {
							case <-highFailed:
							case <-time.After(10 * time.Second):
								return 0, errors.New("u2 never failed")
							}
						}
						return 0, errLow
					case 2:
						close(highFailed)
						return 0, errHigh
					}
					return i, nil
				},
			})
		}
		return units
	}
	// Serially u1 fails first; on four workers u1 waits until u2 has
	// failed, so the later failure reaches the engine first.
	for _, tc := range []struct {
		jobs     int
		waitHigh bool
	}{{1, false}, {4, true}} {
		_, _, err := Run(context.Background(), Config{Jobs: tc.jobs}, mk(tc.waitHigh))
		if !errors.Is(err, errLow) {
			t.Fatalf("jobs=%d: err = %v, want %v", tc.jobs, err, errLow)
		}
		if want := "u1: low unit blew up"; err.Error() != want {
			t.Fatalf("jobs=%d: err = %q, want %q", tc.jobs, err.Error(), want)
		}
	}
}

// TestRunBoundedConcurrency: never more than Jobs units in flight.
func TestRunBoundedConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	var units []Unit[struct{}]
	for i := 0; i < 30; i++ {
		units = append(units, Unit[struct{}]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (struct{}, error) {
				cur := inFlight.Add(1)
				mu.Lock()
				if cur > peak.Load() {
					peak.Store(cur)
				}
				mu.Unlock()
				defer inFlight.Add(-1)
				return struct{}{}, nil
			},
		})
	}
	if _, _, err := Run(context.Background(), Config{Jobs: jobs}, units); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("peak concurrency %d exceeds Jobs=%d", p, jobs)
	}
}

func TestRunEmpty(t *testing.T) {
	res, st, err := Run[int](context.Background(), Config{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
	if st.Jobs != 0 {
		t.Fatalf("empty run reported %d jobs", st.Jobs)
	}
}

type payload struct {
	A int
	B string
}

// TestCacheRoundTrip: second run with the same keys is served from disk
// and produces identical results.
func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	mk := func() []Unit[payload] {
		var units []Unit[payload]
		for i := 0; i < 8; i++ {
			units = append(units, Unit[payload]{
				Label: fmt.Sprintf("u%d", i),
				Key:   Key("test", i),
				Run: func(context.Context) (payload, error) {
					computed.Add(1)
					return payload{A: i, B: fmt.Sprintf("v%d", i)}, nil
				},
			})
		}
		return units
	}

	r1, st1, err := Run(context.Background(), Config{Jobs: 2, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHits != 0 || st1.CacheMisses != 8 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/8", st1.CacheHits, st1.CacheMisses)
	}
	r2, st2, err := Run(context.Background(), Config{Jobs: 2, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != 8 || st2.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 8/0", st2.CacheHits, st2.CacheMisses)
	}
	if computed.Load() != 8 {
		t.Fatalf("units computed %d times, want 8", computed.Load())
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("r1[%d]=%+v != r2[%d]=%+v", i, r1[i], i, r2[i])
		}
		if !st2.Units[i].CacheHit {
			t.Fatalf("warm run unit %d not marked as a cache hit", i)
		}
	}
}

// TestRunPartialCache: cache probes and fills are per unit, so a
// partially cached run computes only the misses, and a second run over
// the same keys is served entirely from cache.
func TestRunPartialCache(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var computed []int
	mk := func() []Unit[int] {
		var units []Unit[int]
		for i := 0; i < 4; i++ {
			units = append(units, Unit[int]{
				Label: fmt.Sprintf("u%d", i),
				Key:   fmt.Sprintf("key%d", i),
				Run: func(context.Context) (int, error) {
					mu.Lock()
					computed = append(computed, i)
					mu.Unlock()
					return 7 * i, nil
				},
			})
		}
		return units
	}
	// Pre-seed unit 2's entry: only the other three may compute.
	data, _ := json.Marshal(14)
	c.Put("key2", data)
	_, st, err := Run(context.Background(), Config{Jobs: 1, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(computed) != "[0 1 3]" {
		t.Fatalf("computed units %v, want [0 1 3]", computed)
	}
	if st.CacheHits != 1 || st.CacheMisses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", st.CacheHits, st.CacheMisses)
	}
	// Second run: all four served from per-unit entries.
	computed = nil
	res, st2, err := Run(context.Background(), Config{Jobs: 2, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(computed) != 0 {
		t.Fatalf("fully cached run computed units %v", computed)
	}
	if st2.CacheHits != 4 {
		t.Fatalf("hits = %d, want 4", st2.CacheHits)
	}
	for i, v := range res {
		if v != 7*i {
			t.Fatalf("res[%d] = %d, want %d", i, v, 7*i)
		}
	}
}

// TestCacheCorruptEntry: a mangled cache file, or a null one (which
// decodes without error but leaves a pointer result nil), is not
// trusted. Load reports an absent entry as a plain miss and a bad one as
// a corrupt miss, the recorder books the unit's probe as a corrupt miss,
// the unit is recomputed, and the recompute repairs the entry.
func TestCacheCorruptEntry(t *testing.T) {
	for name, entry := range map[string]string{"garbage": "{not json", "null": "null\n"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := Key("corrupt", name)
			var p *payload
			if hit, corrupt := c.Load(key, &p); hit || corrupt {
				t.Fatalf("absent entry: hit=%v corrupt=%v, want a plain miss", hit, corrupt)
			}
			c.Put(key, []byte(entry))
			if hit, corrupt := c.Load(key, &p); hit || !corrupt {
				t.Fatalf("%s entry: hit=%v corrupt=%v, want a corrupt miss", name, hit, corrupt)
			}
			unit := Unit[*payload]{Label: "u", Key: key, Run: func(context.Context) (*payload, error) {
				return &payload{A: 7}, nil
			}}
			rec := NewSweepRecorder()
			res, st, err := Run(context.Background(), Config{Cache: c, Recorder: rec}, []Unit[*payload]{unit})
			if err != nil {
				t.Fatal(err)
			}
			if res[0] == nil || res[0].A != 7 {
				t.Fatalf("recomputed value = %+v", res[0])
			}
			if st.CacheHits != 0 || st.CacheMisses != 1 {
				t.Fatalf("corrupt entry counted as a hit (hits=%d misses=%d)", st.CacheHits, st.CacheMisses)
			}
			recs, _, _ := rec.snapshot()
			if u := recs[0]; !u.probed || u.hit || !u.corrupt || !u.ran || u.outcome != trace.SweepRetire {
				t.Fatalf("recorded probed=%v hit=%v corrupt=%v ran=%v outcome=%q, want a corrupt miss recomputed to retire",
					u.probed, u.hit, u.corrupt, u.ran, u.outcome)
			}
			if c.Hits() != 0 {
				t.Fatalf("cache handle counted %d hits, want 0", c.Hits())
			}
			if hit, corrupt := c.Load(key, &p); !hit || corrupt || p == nil || p.A != 7 {
				t.Fatalf("cache entry not repaired: hit=%v corrupt=%v value %+v", hit, corrupt, p)
			}
		})
	}
}

// TestKeyStability: Key is a pure function of its parts — equal parts give
// equal keys, different parts or orders give different keys.
func TestKeyStability(t *testing.T) {
	a := Key("x", 1, payload{A: 2, B: "b"})
	b := Key("x", 1, payload{A: 2, B: "b"})
	if a != b {
		t.Fatalf("same parts produced different keys: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a))
	}
	if Key("x", 1) == Key("1", "x") {
		t.Fatal("reordered parts collide")
	}
	if Key("x", 1) == Key("x", 2) {
		t.Fatal("distinct parts collide")
	}
}

// TestUncachedUnitsAlwaysRun: Key == "" bypasses the cache entirely.
func TestUncachedUnitsAlwaysRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	unit := Unit[int]{Label: "anon", Run: func(context.Context) (int, error) {
		return int(n.Add(1)), nil
	}}
	for want := 1; want <= 2; want++ {
		res, st, err := Run(context.Background(), Config{Cache: c}, []Unit[int]{unit})
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != want {
			t.Fatalf("run %d returned %d, want %d (cached?)", want, res[0], want)
		}
		if st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Fatalf("keyless unit touched the cache: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
		}
	}
}

// TestRunContextCancelled: a pre-cancelled context stops the run.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	var units []Unit[int]
	for i := 0; i < 10; i++ {
		units = append(units, Unit[int]{Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (int, error) { ran.Add(1); return i, nil }})
	}
	_, _, err := Run(ctx, Config{Jobs: 2}, units)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if ran.Load() == 10 {
		t.Log("all units ran despite cancellation (legal but slow)")
	}
}
