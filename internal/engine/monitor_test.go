package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMonitorLiveRun is the acceptance test: during a live engine.Run,
// /progress reports in-flight workers and /metrics exposes the counters
// in Prometheus text format; after the run both show completion.
func TestMonitorLiveRun(t *testing.T) {
	mon := NewMonitor()
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	const n = 6
	release := make(chan struct{})
	started := make(chan struct{}, n)
	units := make([]Unit[int], n)
	for i := range units {
		i := i
		units[i] = Unit[int]{
			Label: fmt.Sprintf("unit-%d", i),
			Run: func(ctx context.Context) (int, error) {
				started <- struct{}{}
				<-release
				return i * i, nil
			},
		}
	}

	var (
		wg      sync.WaitGroup
		results []int
		stats   Stats
		runErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results, stats, runErr = Run(context.Background(), Config{Jobs: 2, Monitor: mon}, units)
	}()

	// Wait until both workers hold a unit, then inspect mid-run.
	<-started
	<-started
	var p Progress
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/progress")), &p); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if p.Total != n {
		t.Errorf("mid-run total = %d, want %d", p.Total, n)
	}
	if p.Done != 0 {
		t.Errorf("mid-run done = %d, want 0 (units are blocked)", p.Done)
	}
	if len(p.Workers) != 2 {
		t.Errorf("mid-run active workers = %d, want 2: %+v", len(p.Workers), p.Workers)
	}
	for _, wu := range p.Workers {
		if !strings.HasPrefix(wu.Label, "unit-") {
			t.Errorf("worker carries wrong label: %+v", wu)
		}
	}
	metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("vanguard_units_total %d", n)) ||
		!strings.Contains(metrics, "vanguard_workers_active 2") {
		t.Errorf("mid-run metrics wrong:\n%s", metrics)
	}

	close(release)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(results) != n || results[3] != 9 {
		t.Fatalf("results wrong: %v", results)
	}
	if stats.Jobs != 2 {
		t.Errorf("stats.Jobs = %d", stats.Jobs)
	}

	p = Progress{}
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/progress")), &p); err != nil {
		t.Fatal(err)
	}
	if p.Done != n || p.Failed != 0 || len(p.Workers) != 0 {
		t.Errorf("post-run progress = %+v, want done=%d failed=0 no workers", p, n)
	}
	if p.EWMAUnitMS <= 0 {
		t.Errorf("post-run EWMA = %v, want > 0", p.EWMAUnitMS)
	}
	metrics = getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("vanguard_units_done %d", n),
		"vanguard_units_failed 0",
		"vanguard_workers_active 0",
		"# TYPE vanguard_unit_latency_ewma_seconds gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("post-run metrics missing %q:\n%s", want, metrics)
		}
	}
	// pprof is mounted on the monitor's private mux.
	if body := getBody(t, srv.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint empty")
	}
}

// TestMonitorFailuresAndHits checks the classification: failed units
// count as failed, cache hits as hits, and neither feeds the EWMA.
func TestMonitorFailuresAndHits(t *testing.T) {
	mon := NewMonitor()
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	units := []Unit[int]{
		{Label: "ok", Key: Key("monitor-test-ok"), Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Label: "bad", Run: func(ctx context.Context) (int, error) { return 0, fmt.Errorf("boom") }},
	}
	_, _, err = Run(context.Background(), Config{Jobs: 1, Cache: cache, Monitor: mon}, units)
	if err == nil {
		t.Fatal("expected unit error")
	}
	p := mon.Snapshot()
	if p.Failed != 1 {
		t.Errorf("failed = %d, want 1", p.Failed)
	}

	// Re-running the cacheable unit alone is a pure cache hit.
	_, _, err = Run(context.Background(), Config{Jobs: 1, Cache: cache, Monitor: mon}, units[:1])
	if err != nil {
		t.Fatal(err)
	}
	p = mon.Snapshot()
	if p.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", p.CacheHits)
	}
	if p.Total != 3 || p.Done != 3 {
		t.Errorf("totals across runs = %d/%d, want 3/3", p.Done, p.Total)
	}
}

// TestMonitorCacheCorrupt plants a garbage run-cache entry through
// Cache.Put, runs the unit under a monitor, and reads the corrupt-entry
// counter back from /metrics: one corrupt entry, recomputed as a miss,
// in an exposition that still passes the text-format validator.
func TestMonitorCacheCorrupt(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("monitor-corrupt")
	cache.Put(key, []byte("{not json"))
	mon := NewMonitor()
	units := []Unit[int]{{Label: "u", Key: key, Run: func(context.Context) (int, error) { return 7, nil }}}
	res, _, err := Run(context.Background(), Config{Jobs: 1, Cache: cache, Monitor: mon}, units)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 7 {
		t.Fatalf("recomputed value = %d, want 7", res[0])
	}

	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	text := getBody(t, srv.URL+"/metrics")
	if err := validatePromText(text); err != nil {
		t.Fatalf("/metrics fails Prometheus text-format validation: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE vanguard_cache_corrupt_total counter",
		"vanguard_cache_corrupt_total 1",
		"vanguard_cache_hits_total 0",
		"vanguard_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// The recompute rewrote the entry, so a second run is a clean hit and
	// the counter holds.
	if _, _, err := Run(context.Background(), Config{Jobs: 1, Cache: cache, Monitor: mon}, units); err != nil {
		t.Fatal(err)
	}
	if p := mon.Snapshot(); p.CacheCorrupt != 1 || p.CacheHits != 1 {
		t.Errorf("after the rewrite: corrupt=%d hits=%d, want 1/1", p.CacheCorrupt, p.CacheHits)
	}
}

func TestMonitorStatusLineAndETA(t *testing.T) {
	mon := NewMonitor()
	mon.addRun(10, 2)
	slot := mon.beginUnit("a")
	mon.endUnit(slot, 100*time.Millisecond, false, false)
	p := mon.Snapshot()
	if p.EWMAUnitMS != 100 {
		t.Errorf("first sample must set the EWMA directly: %v", p.EWMAUnitMS)
	}
	// 9 remaining × 100ms ÷ 2 configured workers (none active).
	if p.ETAMS != 450 {
		t.Errorf("ETA = %v ms, want 450", p.ETAMS)
	}
	slot = mon.beginUnit("b")
	mon.endUnit(slot, 200*time.Millisecond, false, false)
	if got := mon.Snapshot().EWMAUnitMS; got != 120 {
		t.Errorf("EWMA after 100,200 = %v, want 0.8*100+0.2*200 = 120", got)
	}

	line := mon.StatusLine()
	for _, want := range []string{"2/10 units", "0 cache hits", "0 active", "120 ms/unit", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("status line missing %q: %q", want, line)
		}
	}

	var buf syncBuffer
	stop := mon.StartStatus(&buf, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	out := buf.String()
	if !strings.Contains(out, "2/10 units") {
		t.Errorf("status renderer never drew: %q", out)
	}
	if !strings.HasSuffix(out, "\r") {
		t.Errorf("stop must erase the line: %q", out)
	}
}

// TestMonitorServeClose pins the Serve contract: the returned close
// function shuts the server down and releases the listener (Serve used
// to leak both for the life of the process), and /healthz answers while
// the server is up.
func TestMonitorServeClose(t *testing.T) {
	mon := NewMonitor()
	addr, closeSrv, err := mon.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if body := getBody(t, "http://"+addr+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if err := closeSrv(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after close")
	}
	// The port is free again: a second monitor can bind it.
	addr2, closeSrv2, err := mon.Serve(addr)
	if err != nil {
		t.Fatalf("rebind %s after close: %v", addr, err)
	}
	if addr2 != addr {
		t.Errorf("rebound to %s, want %s", addr2, addr)
	}
	closeSrv2()
}

// TestMonitorHammer races every mutating and reading entry point under
// the race detector and then asserts counter conservation: everything
// begun was ended exactly once, and done partitions into failed + hits +
// computed (the latency histogram's count).
func TestMonitorHammer(t *testing.T) {
	mon := NewMonitor()
	const workers, perWorker = 8, 200
	mon.addRun(workers*perWorker, workers)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = mon.Snapshot()
					_ = mon.StatusLine()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				slot := mon.beginUnit(fmt.Sprintf("w%d-%d", g, i))
				mon.ObserveAttr(map[string]int64{"base": 2, "br_mispredict": 1})
				switch i % 4 {
				case 0:
					mon.endUnit(slot, time.Microsecond, false, true) // failed
				case 1:
					mon.endUnit(slot, time.Microsecond, true, false) // cache hit
				default:
					mon.endUnit(slot, time.Microsecond, false, false) // computed
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	p := mon.Snapshot()
	const total = workers * perWorker
	if p.Total != total || p.Done != total {
		t.Fatalf("done/total = %d/%d, want %d/%d", p.Done, p.Total, total, total)
	}
	wantFailed, wantHits := total/4, total/4
	computed := total - wantFailed - wantHits
	if p.Failed != wantFailed {
		t.Errorf("failed = %d, want %d", p.Failed, wantFailed)
	}
	if p.CacheHits != wantHits {
		t.Errorf("cache hits = %d, want %d", p.CacheHits, wantHits)
	}
	// Everything not served from cache is a miss, including failures.
	if p.CacheMisses != total-wantHits {
		t.Errorf("cache misses = %d, want %d", p.CacheMisses, total-wantHits)
	}
	if p.UnitLatencyUS == nil || p.UnitLatencyUS.Count != int64(computed) {
		t.Errorf("latency histogram count = %+v, want %d computed units", p.UnitLatencyUS, computed)
	}
	if len(p.Workers) != 0 || p.QueueDepth != 0 {
		t.Errorf("post-run active=%d queue=%d, want 0/0", len(p.Workers), p.QueueDepth)
	}
	if p.BusyRatio < 0 || p.BusyRatio > 1 {
		t.Errorf("busy ratio = %v outside [0,1]", p.BusyRatio)
	}
	if causes, slots := mon.attrSnapshot(); slots["base"] != 2*total || slots["br_mispredict"] != int64(total) {
		t.Errorf("attr counters = %v %v, want base=%d br_mispredict=%d", causes, slots, 2*total, total)
	}
}

// TestSweepDashboard drives /debug/sweep against a seeded monitor: the
// page renders occupancy bars for active units, the hit-rate, and the
// latency histogram without needing any client-side script.
func TestSweepDashboard(t *testing.T) {
	mon := NewMonitor()
	mon.addRun(10, 4)
	slot := mon.beginUnit("done-unit")
	mon.endUnit(slot, 3*time.Millisecond, false, false) // computed
	slot = mon.beginUnit("hit-unit")
	mon.endUnit(slot, time.Millisecond, true, false) // cache hit
	mon.beginUnit("live-unit")                       // stays active

	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	body := getBody(t, srv.URL+"/debug/sweep")
	for _, want := range []string{
		"vanguard sweep",
		"2/10 units done",
		"50% cache hit-rate", // 1 hit / 2 probes
		"live-unit",          // the occupancy bar row
		"class=\"bar\"",
		"unit latency",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/sweep missing %q:\n%s", want, body)
		}
	}
	// The idle dashboard renders too (no units, no division by zero).
	empty := httptest.NewServer(NewMonitor().Handler())
	defer empty.Close()
	if body := getBody(t, empty.URL+"/debug/sweep"); !strings.Contains(body, "(idle)") {
		t.Errorf("idle dashboard missing placeholder:\n%s", body)
	}
}

// syncBuffer is a strings.Builder safe for the status goroutine + test.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
