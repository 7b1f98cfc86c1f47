package engine

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"vanguard/internal/trace"
)

// Monitor makes the engine runs booked in one SweepRecorder inspectable
// while they execute: it renders a consistent progress snapshot of the
// records as JSON (/progress), Prometheus text (/metrics), an HTML
// dashboard (/debug/sweep) or a single-line terminal status. Its only own
// state is the attribution and predictor rollups the harness feeds it
// (ObserveAttr, ObserveBpred). All methods are safe for concurrent use.
type Monitor struct {
	rec *SweepRecorder

	mu sync.Mutex
	// attrSlots accumulates per-cause issue-slot totals from attributed
	// runs (harness calls ObserveAttr once per simulated result). Keys are
	// the attr cause keys.
	attrSlots map[string]int64
	// bpred accumulates the predictor-observatory rollup from probed runs
	// (ObserveBpred; /metrics vanguard_bpred_* and /debug/bpred).
	bpred bpredMon
}

// ewmaAlpha weights the latest unit compute time in the moving average:
// ewma = (1-alpha)*ewma + alpha*latest.
const ewmaAlpha = 0.2

// NewMonitor returns a monitor over rec, the recorder the engine runs to
// watch book into (engine.Config.Recorder); hand it to Serve/StartStatus.
func NewMonitor(rec *SweepRecorder) *Monitor {
	return &Monitor{rec: rec}
}

// ObserveAttr folds one attributed run's per-cause issue-slot totals
// (attr.Report.Slots; passed as a plain map so the engine stays
// independent of the attr package) into the monitor's running counters,
// exposed at /metrics as vanguard_attr_slots_total{cause="..."}.
func (m *Monitor) ObserveAttr(slots map[string]int64) {
	m.mu.Lock()
	if m.attrSlots == nil {
		m.attrSlots = make(map[string]int64, len(slots))
	}
	for cause, n := range slots {
		m.attrSlots[cause] += n
	}
	m.mu.Unlock()
}

// attrSnapshot copies the per-cause counters in sorted key order.
func (m *Monitor) attrSnapshot() ([]string, map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.attrSlots) == 0 {
		return nil, nil
	}
	causes := make([]string, 0, len(m.attrSlots))
	out := make(map[string]int64, len(m.attrSlots))
	for cause, n := range m.attrSlots {
		causes = append(causes, cause)
		out[cause] = n
	}
	sort.Strings(causes)
	return causes, out
}

// promLabelEscape escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline.
func promLabelEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WorkerUnit is one in-flight unit in a Progress snapshot; Slot is its
// index in the recorder (enumeration order across runs).
type WorkerUnit struct {
	Slot      int     `json:"slot"`
	Label     string  `json:"label"`
	RunningMS float64 `json:"running_ms"`
}

// Progress is one consistent snapshot of the engine runs booked in a
// recorder. ETA is the
// remaining-unit estimate remaining×EWMA÷active-workers; it is zero
// until the first computed unit retires.
type Progress struct {
	Total int `json:"total"`
	// Done counts retired units: computed, served from the cache,
	// failed or cancelled. CacheHits and CacheMisses count only units
	// that probed the run cache.
	Done        int          `json:"done"`
	Failed      int          `json:"failed"`
	CacheHits   int          `json:"cache_hits"`
	CacheMisses int          `json:"cache_misses"`
	Workers     []WorkerUnit `json:"workers,omitempty"`
	EWMAUnitMS  float64      `json:"ewma_unit_ms"`
	ETAMS       float64      `json:"eta_ms"`
	ElapsedMS   float64      `json:"elapsed_ms"`
	// Jobs is the high-water configured worker count; QueueDepth counts
	// units enqueued but not yet started; BusyRatio is the fraction of
	// available worker-time (elapsed × jobs) spent executing units,
	// including the still-running tails of active units.
	Jobs       int     `json:"jobs"`
	QueueDepth int     `json:"queue_depth"`
	BusyRatio  float64 `json:"busy_ratio"`
	// UnitLatencyUS is the compute-time histogram (microseconds) of the
	// units computed to completion, present once the first one retires.
	UnitLatencyUS *trace.Hist `json:"unit_latency_us,omitempty"`

	// CacheCorrupt counts the cache misses that found an entry which did
	// not decode (it was recomputed and rewritten).
	CacheCorrupt int `json:"cache_corrupt"`
}

// Snapshot derives the current progress from one copy of the records, so
// every field is mutually consistent.
func (m *Monitor) Snapshot() Progress {
	recs, jobs, now := m.rec.snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	p := Progress{Total: len(recs), Jobs: jobs, ElapsedMS: ms(now)}
	var busy time.Duration
	var lat trace.Hist
	var computed []*unitRec
	for i := range recs {
		u := &recs[i]
		if u.probed {
			if u.hit {
				p.CacheHits++
			} else {
				p.CacheMisses++
			}
		}
		if u.corrupt {
			p.CacheCorrupt++
		}
		switch {
		case u.outcome == "" && u.worker < 0:
			p.QueueDepth++
		case u.outcome == "":
			p.Workers = append(p.Workers, WorkerUnit{Slot: i, Label: u.label, RunningMS: ms(now - u.deq)})
			busy += now - u.deq
		default:
			p.Done++
			if u.worker >= 0 {
				busy += u.end - u.deq
			}
			if u.outcome == trace.SweepFail {
				p.Failed++
			}
			if u.computed() {
				computed = append(computed, u)
				lat.Observe(int64((u.end - u.runStart) / time.Microsecond))
			}
		}
	}
	if avail := now * time.Duration(jobs); avail > 0 {
		p.BusyRatio = min(float64(busy)/float64(avail), 1)
	}
	if lat.Count > 0 {
		p.UnitLatencyUS = &lat
	}
	// The EWMA folds the computed units' compute times in the order they
	// finished.
	sort.Slice(computed, func(i, j int) bool { return computed[i].end < computed[j].end })
	var ewma time.Duration
	for i, u := range computed {
		if d := u.end - u.runStart; i == 0 {
			ewma = d
		} else {
			ewma = time.Duration((1-ewmaAlpha)*float64(ewma) + ewmaAlpha*float64(d))
		}
	}
	p.EWMAUnitMS = ms(ewma)
	if remaining := p.Total - p.Done; remaining > 0 && ewma > 0 {
		div := len(p.Workers)
		if div == 0 {
			div = max(jobs, 1)
		}
		p.ETAMS = float64(remaining) * p.EWMAUnitMS / float64(div)
	}
	return p
}

// StatusLine renders the snapshot as one terminal line (no newline), the
// -progress display.
func (m *Monitor) StatusLine() string {
	p := m.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d units", p.Done, p.Total)
	if p.Failed > 0 {
		fmt.Fprintf(&sb, ", %d failed", p.Failed)
	}
	fmt.Fprintf(&sb, ", %d cache hits, %d active", p.CacheHits, len(p.Workers))
	if p.EWMAUnitMS > 0 {
		fmt.Fprintf(&sb, ", %.0f ms/unit", p.EWMAUnitMS)
	}
	if p.ETAMS > 0 {
		fmt.Fprintf(&sb, ", ETA %s", time.Duration(p.ETAMS*float64(time.Millisecond)).Round(time.Second))
	}
	return sb.String()
}

// StartStatus redraws the status line on w every interval until the
// returned stop function is called; stop erases the line. Intended for
// stderr so it composes with redirected stdout reports.
func (m *Monitor) StartStatus(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		width := 0
		draw := func() {
			line := m.StatusLine()
			pad := width - len(line)
			if pad < 0 {
				pad = 0
			}
			fmt.Fprintf(w, "\r%s%s", line, strings.Repeat(" ", pad))
			width = len(line)
		}
		for {
			select {
			case <-t.C:
				draw()
			case <-quit:
				fmt.Fprintf(w, "\r%s\r", strings.Repeat(" ", width))
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// Handler returns the monitor's HTTP surface: /progress (the Snapshot as
// JSON), /metrics (Prometheus text exposition), and the standard
// /debug/pprof endpoints, all on a private mux so attaching a monitor
// never pollutes http.DefaultServeMux.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		p := m.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# HELP vanguard_units_total Units enqueued on the engine.\n")
		fmt.Fprintf(w, "# TYPE vanguard_units_total counter\nvanguard_units_total %d\n", p.Total)
		fmt.Fprintf(w, "# HELP vanguard_units_done Units retired: computed, served from the run cache, failed or cancelled.\n")
		fmt.Fprintf(w, "# TYPE vanguard_units_done gauge\nvanguard_units_done %d\n", p.Done)
		fmt.Fprintf(w, "# HELP vanguard_units_failed Units that returned an error.\n")
		fmt.Fprintf(w, "# TYPE vanguard_units_failed gauge\nvanguard_units_failed %d\n", p.Failed)
		fmt.Fprintf(w, "# HELP vanguard_cache_hits_total Units served from the run cache.\n")
		fmt.Fprintf(w, "# TYPE vanguard_cache_hits_total counter\nvanguard_cache_hits_total %d\n", p.CacheHits)
		fmt.Fprintf(w, "# HELP vanguard_cache_misses_total Cacheable units whose run-cache probe found no entry (includes later failures and cancels; uncacheable units are not counted).\n")
		fmt.Fprintf(w, "# TYPE vanguard_cache_misses_total counter\nvanguard_cache_misses_total %d\n", p.CacheMisses)
		fmt.Fprintf(w, "# HELP vanguard_cache_corrupt_total Run-cache entries that did not decode and were recomputed (also counted as misses).\n")
		fmt.Fprintf(w, "# TYPE vanguard_cache_corrupt_total counter\nvanguard_cache_corrupt_total %d\n", p.CacheCorrupt)
		fmt.Fprintf(w, "# HELP vanguard_unit_errors_total Units that returned an error (alias of vanguard_units_failed for error-rate dashboards).\n")
		fmt.Fprintf(w, "# TYPE vanguard_unit_errors_total counter\nvanguard_unit_errors_total %d\n", p.Failed)
		fmt.Fprintf(w, "# HELP vanguard_workers_active Units currently executing.\n")
		fmt.Fprintf(w, "# TYPE vanguard_workers_active gauge\nvanguard_workers_active %d\n", len(p.Workers))
		fmt.Fprintf(w, "# HELP vanguard_queue_depth Units enqueued but not yet started.\n")
		fmt.Fprintf(w, "# TYPE vanguard_queue_depth gauge\nvanguard_queue_depth %d\n", p.QueueDepth)
		fmt.Fprintf(w, "# HELP vanguard_worker_busy_ratio Fraction of available worker-time spent executing units.\n")
		fmt.Fprintf(w, "# TYPE vanguard_worker_busy_ratio gauge\nvanguard_worker_busy_ratio %g\n", p.BusyRatio)
		fmt.Fprintf(w, "# HELP vanguard_unit_latency_ewma_seconds EWMA wall time of units computed to completion.\n")
		fmt.Fprintf(w, "# TYPE vanguard_unit_latency_ewma_seconds gauge\nvanguard_unit_latency_ewma_seconds %g\n", p.EWMAUnitMS/1000)
		fmt.Fprintf(w, "# HELP vanguard_eta_seconds Estimated time to drain the remaining units.\n")
		fmt.Fprintf(w, "# TYPE vanguard_eta_seconds gauge\nvanguard_eta_seconds %g\n", p.ETAMS/1000)
		fmt.Fprintf(w, "# HELP vanguard_unit_latency_seconds Wall time of units computed to completion (not cache hits, failures or cancels).\n")
		fmt.Fprintf(w, "# TYPE vanguard_unit_latency_seconds histogram\n")
		var cum int64
		if h := p.UnitLatencyUS; h != nil {
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				cum += n
				_, hi := trace.BucketBounds(i)
				fmt.Fprintf(w, "vanguard_unit_latency_seconds_bucket{le=\"%g\"} %d\n", float64(hi)/1e6, cum)
			}
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_bucket{le=\"+Inf\"} %d\n", h.Count)
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_sum %g\n", float64(h.Sum)/1e6)
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_count %d\n", h.Count)
		} else {
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_bucket{le=\"+Inf\"} 0\n")
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_sum 0\n")
			fmt.Fprintf(w, "vanguard_unit_latency_seconds_count 0\n")
		}
		if causes, slots := m.attrSnapshot(); len(causes) > 0 {
			fmt.Fprintf(w, "# HELP vanguard_attr_slots_total Issue slots charged per attribution cause across attributed runs.\n")
			fmt.Fprintf(w, "# TYPE vanguard_attr_slots_total counter\n")
			for _, cause := range causes {
				fmt.Fprintf(w, "vanguard_attr_slots_total{cause=\"%s\"} %d\n", promLabelEscape(cause), slots[cause])
			}
		}
		m.writeBpredMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/sweep", m.sweepDashboard)
	mux.HandleFunc("/debug/bpred", m.bpredDashboard)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sweepTmpl renders the /debug/sweep dashboard: a dependency-free
// server-side page in the /debug/pprof spirit — worker occupancy bars,
// cache hit-rate, the unit-latency histogram, and the ETA, refreshed by
// the browser once a second.
var sweepTmpl = template.Must(template.New("sweep").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="1">
<title>vanguard sweep</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fff; color: #111; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.5em; }
table { border-collapse: collapse; }
td, th { padding: 0.15em 0.8em 0.15em 0; text-align: left; vertical-align: baseline; }
.bar { display: inline-block; height: 0.8em; background: #36c; vertical-align: baseline; }
.hit { background: #3a3; } .num { text-align: right; }
</style>
</head>
<body>
<h1>vanguard sweep</h1>
<p>{{.Done}}/{{.Total}} units done{{if .Failed}}, <strong>{{.Failed}} failed</strong>{{end}},
{{.QueueDepth}} queued, {{printf "%.0f%%" .HitPct}} cache hit-rate,
busy {{printf "%.0f%%" .BusyPct}}{{if .ETA}}, ETA {{.ETA}}{{end}}.</p>
<h2>workers ({{len .Workers}} active / {{.Jobs}} configured)</h2>
<table>
{{range .Workers}}<tr><td>{{.Label}}</td>
<td><span class="bar" style="width: {{.Pct}}px"></span></td>
<td class="num">{{printf "%.0f" .RunningMS}} ms</td></tr>
{{else}}<tr><td>(idle)</td></tr>
{{end}}</table>
<h2>unit latency</h2>
{{if .Lat}}<table>
{{range .Lat}}<tr><td>{{.Range}}</td>
<td><span class="bar hit" style="width: {{.Pct}}px"></span></td>
<td class="num">{{.N}}</td></tr>
{{end}}</table>
{{else}}<p>(no computed units yet)</p>
{{end}}<p><a href="/progress">progress JSON</a> · <a href="/metrics">metrics</a> · <a href="/debug/pprof/">pprof</a></p>
</body>
</html>
`))

// sweepRow is one occupancy bar; sweepBucket one latency-histogram row.
type sweepRow struct {
	Label     string
	RunningMS float64
	Pct       int
}

type sweepBucket struct {
	Range string
	N     int64
	Pct   int
}

type sweepPage struct {
	Total, Done, Failed, QueueDepth, Jobs int
	HitPct, BusyPct                       float64
	ETA                                   string
	Workers                               []sweepRow
	Lat                                   []sweepBucket
}

// sweepDashboard serves /debug/sweep from the live Snapshot.
func (m *Monitor) sweepDashboard(w http.ResponseWriter, _ *http.Request) {
	p := m.Snapshot()
	page := sweepPage{
		Total: p.Total, Done: p.Done, Failed: p.Failed,
		QueueDepth: p.QueueDepth, Jobs: p.Jobs,
		BusyPct: p.BusyRatio * 100,
	}
	if probes := p.CacheHits + p.CacheMisses; probes > 0 {
		page.HitPct = 100 * float64(p.CacheHits) / float64(probes)
	}
	if p.ETAMS > 0 {
		page.ETA = time.Duration(p.ETAMS * float64(time.Millisecond)).Round(time.Second).String()
	}
	const barPx = 300
	maxMS := 1.0
	for _, wu := range p.Workers {
		if wu.RunningMS > maxMS {
			maxMS = wu.RunningMS
		}
	}
	for _, wu := range p.Workers {
		page.Workers = append(page.Workers, sweepRow{
			Label: wu.Label, RunningMS: wu.RunningMS,
			Pct: int(wu.RunningMS / maxMS * barPx),
		})
	}
	if h := p.UnitLatencyUS; h != nil {
		var maxN int64 = 1
		for _, n := range h.Buckets {
			if n > maxN {
				maxN = n
			}
		}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			lo, hi := trace.BucketBounds(i)
			r := fmt.Sprintf("%v–%v", time.Duration(lo)*time.Microsecond, time.Duration(hi)*time.Microsecond)
			if i == 0 {
				r = fmt.Sprintf("≤%v", time.Duration(hi-1)*time.Microsecond)
			}
			page.Lat = append(page.Lat, sweepBucket{
				Range: r, N: n, Pct: int(float64(n) / float64(maxN) * barPx),
			})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	sweepTmpl.Execute(w, page)
}

// Serve binds addr (":0" picks a free port), serves Handler on it in a
// background goroutine, and returns the bound address plus a close
// function that shuts the server down and releases the listener (the
// server otherwise lives for the life of the process).
func (m *Monitor) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
