package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"vanguard/internal/trace"
)

// span is one call the traced replay timed. Spans nest on the single
// replay goroutine; a span's self time is its duration minus its
// children's durations.
type span struct {
	Name    string
	Parent  int // index of the enclosing span, -1 for the root
	Unit    int // index into tracer.units, -1 when the span serves no unit
	Start   time.Duration
	End     time.Duration
	Mallocs uint64 // heap objects allocated between begin and end

	mallocs0 uint64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// isLayer reports whether the span times a call into a layer's public
// function ("sched.program") rather than grouping such calls ("build").
func (s *span) isLayer() bool { return strings.Contains(s.Name, ".") }

// tracer records spans in memory; they are written out when the traced
// run ends. A nil *tracer records nothing.
type tracer struct {
	start time.Time
	// mallocs reads runtime.MemStats at every span boundary: a
	// stop-the-world call, made outside the span's own interval and
	// summed in bookkeeping.
	mallocs     bool
	bookkeeping time.Duration
	spans       []span
	open        []int
	units       []string
}

func newTracer(mallocs bool) *tracer {
	return &tracer{start: time.Now(), mallocs: mallocs}
}

// unit registers a unit label (the harness engine's unit naming) and
// returns its id.
func (t *tracer) unit(label string) int {
	if t == nil {
		return -1
	}
	t.units = append(t.units, label)
	return len(t.units) - 1
}

// begin opens a span inside the innermost open one and returns its id.
func (t *tracer) begin(name string, unit int) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Parent: -1, Unit: unit}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	if t.mallocs {
		t0 := time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs0 = ms.Mallocs
		t.bookkeeping += time.Since(t0)
	}
	s.Start = time.Since(t.start)
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	s := &t.spans[id]
	s.End = time.Since(t.start)
	if t.mallocs {
		t0 := time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Mallocs = ms.Mallocs - s.mallocs0
		t.bookkeeping += time.Since(t0)
	}
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus its children's, and its
// mallocs minus theirs, indexed like t.spans.
func (t *tracer) selfTimes() ([]time.Duration, []int64) {
	self := make([]time.Duration, len(t.spans))
	mallocs := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		mallocs[i] += int64(t.spans[i].Mallocs)
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
			mallocs[p] -= int64(t.spans[i].Mallocs)
		}
	}
	return self, mallocs
}

// layerTime is the self time, call count and self mallocs of every span
// sharing one name.
type layerTime struct {
	Name    string  `json:"name"`
	SelfS   float64 `json:"self_s"`
	Calls   int     `json:"calls"`
	Mallocs int64   `json:"mallocs"`
}

// byName folds span self times by span name, largest first.
func (t *tracer) byName() []layerTime {
	self, mallocs := t.selfTimes()
	idx := map[string]int{}
	var out []layerTime
	for i := range t.spans {
		name := t.spans[i].Name
		k, ok := idx[name]
		if !ok {
			k = len(out)
			idx[name] = k
			out = append(out, layerTime{Name: name})
		}
		out[k].SelfS += self[i].Seconds()
		out[k].Calls++
		out[k].Mallocs += mallocs[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// coverage is the share of the root span's duration, less the tracer's
// own MemStats reads, that layer spans' self times account for. The
// reads are left out because they stop the world: on a loaded host each
// waits for the other processor, which says nothing about whether the
// replay's work is traced.
func (t *tracer) coverage() float64 {
	if len(t.spans) == 0 {
		return 0
	}
	work := t.spans[0].dur() - t.bookkeeping
	if work <= 0 {
		return 0
	}
	self, _ := t.selfTimes()
	var covered time.Duration
	for i := range t.spans {
		if t.spans[i].isLayer() {
			covered += self[i]
		}
	}
	return covered.Seconds() / work.Seconds()
}

// spanJSON is the on-disk form of one span; times are microseconds from
// the start of the traced replay.
type spanJSON struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	Unit    int     `json:"unit"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	Mallocs int64   `json:"mallocs"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeJSON writes every span with its self time and the unit labels.
func (t *tracer) writeJSON(path, workload string, seed int64) error {
	self, mallocs := t.selfTimes()
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Units    []string   `json:"units"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Seed: seed, Units: t.units}
	for i, s := range t.spans {
		doc.Spans = append(doc.Spans, spanJSON{
			ID: i, Name: s.Name, Parent: s.Parent, Unit: s.Unit,
			StartUS: us(s.Start), EndUS: us(s.End), SelfUS: us(self[i]), Mallocs: mallocs[i],
		})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeChrome writes the spans as a Chrome trace_event timeline: one
// track, nested slices, each carrying its unit label and mallocs.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c := trace.NewChromeSpans(f, "vgbench "+workload, 1)
	c.Thread(1, 1, "replay")
	for _, s := range t.spans {
		unit := ""
		if s.Unit >= 0 {
			unit = t.units[s.Unit]
		}
		args := fmt.Sprintf(`"unit":%q,"mallocs":%d`, unit, s.Mallocs)
		c.Span(1, 1, s.Name, "replay", s.Start.Microseconds(), s.dur().Microseconds(), args)
	}
	return c.Close()
}
