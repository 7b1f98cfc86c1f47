package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// SweepSchema identifies the sweep flight-recording wire format
// (sweep_trace.json artifacts and the `sweep` section of telemetry
// reports). Bump on any incompatible change, like the telemetry tags.
const SweepSchema = "vanguard-sweep-trace/v1"

// Sweep span phases. Every unit gets exactly one "unit" span covering
// its whole lifecycle; "queue", "probe" and "compute" spans nest inside
// it (the conservation invariant Check enforces).
const (
	SweepPhaseUnit    = "unit"
	SweepPhaseQueue   = "queue"
	SweepPhaseProbe   = "probe"
	SweepPhaseCompute = "compute"
)

// Terminal outcomes of a unit span, and probe-span outcomes.
const (
	SweepRetire = "retire" // computed (or served from cache) successfully
	SweepFail   = "fail"   // the unit's Run returned an error
	SweepCancel = "cancel" // never computed: a sibling failure drained the run
	SweepHit    = "hit"    // cache probe found a stored result
	SweepMiss   = "miss"   // cache probe found nothing (or a corrupt entry)
)

// SweepSpan is one span of the sweep flight recording. Times are
// microseconds since the recorder was created, so spans from several
// engine runs sharing one recorder stay on one clock.
type SweepSpan struct {
	// Unit is the enumeration index of the unit this span charges —
	// global across every engine run the recorder observed.
	Unit  int    `json:"unit"`
	Label string `json:"label"`
	Phase string `json:"phase"`
	// Worker is the worker-goroutine index the span executed on; -1 for
	// spans that happen off-worker (queue residency, cancelled units).
	Worker  int   `json:"worker"`
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Outcome is the terminal state (unit spans: retire/fail/cancel) or
	// the probe result (probe spans: hit/miss).
	Outcome string `json:"outcome,omitempty"`
	// Key is the unit's run-cache content key (unit spans only), so the
	// recording joins against the sha256-keyed artifact store.
	Key string `json:"key,omitempty"`
}

// SweepReport is the full flight recording of one sweep: per-phase spans
// in deterministic enumeration order and the queue-delay / latency /
// wasted-work accounting derived from the span timestamps. Wall times
// vary run to run; span ordering does not. Readers ignore fields they do
// not know, so recordings that carry the retired lane-group fields
// (span batch/width, report groups) still read and check.
type SweepReport struct {
	Schema      string `json:"schema"`
	Workers     int    `json:"workers"`
	Units       int    `json:"units"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	Failed      int    `json:"failed"`
	Cancelled   int    `json:"cancelled"`
	// WallUS spans recorder creation to the last recorded event.
	WallUS int64 `json:"wall_us"`
	// QueueWaitUS totals every unit's enqueue-to-dequeue residency.
	QueueWaitUS int64 `json:"queue_wait_us"`
	// WastedUS totals work that produced nothing: compute time of failed
	// units plus queue residency of cancelled units.
	WastedUS    int64       `json:"wasted_us"`
	QueueDelay  *Hist       `json:"queue_delay_us,omitempty"`
	UnitLatency *Hist       `json:"unit_latency_us,omitempty"`
	Spans       []SweepSpan `json:"spans"`
}

// WriteJSON renders the recording as indented JSON (the sweep_trace.json
// artifact format).
func (s *SweepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the recording to path.
func (s *SweepReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSweep parses a sweep recording and verifies its schema tag.
func ReadSweep(r io.Reader) (*SweepReport, error) {
	var s SweepReport
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Schema != SweepSchema {
		return nil, fmt.Errorf("trace: sweep schema %q (want %s)", s.Schema, SweepSchema)
	}
	return &s, nil
}

// Check enforces the span conservation invariant: every unit 0..Units-1
// carries exactly one unit span with a terminal outcome, every phase
// span nests inside its unit span, probe outcomes reconcile with the
// hit/miss counters, and terminal outcomes reconcile with the
// failed/cancelled counters.
func (s *SweepReport) Check() error {
	unitSpan := make(map[int]SweepSpan, s.Units)
	var hits, misses, failed, cancelled int
	for _, sp := range s.Spans {
		if sp.Phase != SweepPhaseUnit {
			continue
		}
		if sp.Unit < 0 || sp.Unit >= s.Units {
			return fmt.Errorf("sweep: unit span index %d outside [0,%d)", sp.Unit, s.Units)
		}
		if _, dup := unitSpan[sp.Unit]; dup {
			return fmt.Errorf("sweep: unit %d has two unit spans", sp.Unit)
		}
		switch sp.Outcome {
		case SweepRetire:
		case SweepFail:
			failed++
		case SweepCancel:
			cancelled++
		default:
			return fmt.Errorf("sweep: unit %d has non-terminal outcome %q", sp.Unit, sp.Outcome)
		}
		unitSpan[sp.Unit] = sp
	}
	if len(unitSpan) != s.Units {
		return fmt.Errorf("sweep: %d unit spans for %d units", len(unitSpan), s.Units)
	}
	for _, sp := range s.Spans {
		if sp.Phase == SweepPhaseUnit {
			continue
		}
		switch sp.Phase {
		case SweepPhaseQueue, SweepPhaseProbe, SweepPhaseCompute:
		default:
			return fmt.Errorf("sweep: unit %d has unknown phase %q", sp.Unit, sp.Phase)
		}
		u, ok := unitSpan[sp.Unit]
		if !ok {
			return fmt.Errorf("sweep: %s span for unit %d, which has no unit span", sp.Phase, sp.Unit)
		}
		if sp.StartUS < u.StartUS || sp.StartUS+sp.DurUS > u.StartUS+u.DurUS {
			return fmt.Errorf("sweep: unit %d %s span [%d,%d) escapes its unit span [%d,%d)",
				sp.Unit, sp.Phase, sp.StartUS, sp.StartUS+sp.DurUS, u.StartUS, u.StartUS+u.DurUS)
		}
		if sp.Phase == SweepPhaseProbe {
			switch sp.Outcome {
			case SweepHit:
				hits++
			case SweepMiss:
				misses++
			default:
				return fmt.Errorf("sweep: unit %d probe span outcome %q", sp.Unit, sp.Outcome)
			}
		}
	}
	if hits != s.CacheHits || misses != s.CacheMisses {
		return fmt.Errorf("sweep: probe spans count %d hits / %d misses, counters say %d / %d",
			hits, misses, s.CacheHits, s.CacheMisses)
	}
	if failed != s.Failed || cancelled != s.Cancelled {
		return fmt.Errorf("sweep: terminal spans count %d failed / %d cancelled, counters say %d / %d",
			failed, cancelled, s.Failed, s.Cancelled)
	}
	return nil
}

// Chrome track layout of a sweep timeline: worker W renders on tid W+1,
// queue residency on the track after the last worker.
const sweepChromePid = 1

// WriteChrome renders the recording as a Chrome trace_event timeline —
// one track per worker plus a queue track and a queue-depth counter — so
// cache stampedes, pool starvation, and straggler units are visible in
// chrome://tracing or ui.perfetto.dev.
func (s *SweepReport) WriteChrome(w io.Writer) error {
	c := NewChromeSpans(w, "vanguard sweep", sweepChromePid)
	workers := s.Workers
	for _, sp := range s.Spans {
		if sp.Worker >= workers { // recordings from older configs stay renderable
			workers = sp.Worker + 1
		}
	}
	for wk := 0; wk < workers; wk++ {
		c.Thread(sweepChromePid, wk+1, fmt.Sprintf("worker %d", wk))
	}
	queueTid := workers + 1
	c.Thread(sweepChromePid, queueTid, "queue")

	type drain struct{ at int64 }
	var drains []drain
	for _, sp := range s.Spans {
		args := fmt.Sprintf(`"unit":%d,"label":"%s"`, sp.Unit, jsonEscape(sp.Label))
		if sp.Outcome != "" {
			args += fmt.Sprintf(`,"outcome":"%s"`, jsonEscape(sp.Outcome))
		}
		if sp.Key != "" {
			args += fmt.Sprintf(`,"key":"%s"`, jsonEscape(sp.Key))
		}
		switch sp.Phase {
		case SweepPhaseUnit:
			// The unit span is bookkeeping (it contains the phases below);
			// rendering it too would double every bar, so it stays JSON-only.
		case SweepPhaseQueue:
			c.Span(sweepChromePid, queueTid, "queue:"+sp.Label, "sweep", sp.StartUS, sp.DurUS, args)
			drains = append(drains, drain{at: sp.StartUS + sp.DurUS})
		case SweepPhaseProbe:
			c.Span(sweepChromePid, sp.Worker+1, "probe:"+sp.Outcome, "sweep", sp.StartUS, sp.DurUS, args)
		case SweepPhaseCompute:
			c.Span(sweepChromePid, sp.Worker+1, sp.Label, "sweep", sp.StartUS, sp.DurUS, args)
		}
	}
	// Queue depth over time: all units enqueue at their queue span start;
	// each queue span end drains one.
	sort.Slice(drains, func(i, j int) bool { return drains[i].at < drains[j].at })
	depth := int64(len(drains))
	c.Counter(sweepChromePid, "queue depth", 0, "queued", depth)
	for _, d := range drains {
		depth--
		c.Counter(sweepChromePid, "queue depth", d.at, "queued", depth)
	}
	return c.Close()
}
