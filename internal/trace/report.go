package trace

import (
	"encoding/json"
	"io"
	"strconv"

	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/sample"
)

// Schema is the run-report wire tag every report is written with. Bump
// the suffix only on an incompatible change. Additive changes (new
// counters, new hists, new optional sections) keep it: a section's
// presence is the capability, so a report without samples, attribution,
// pipeview, sweep or bpredstudy sections is byte-identical to one written
// before those sections existed.
const Schema = "vanguard-telemetry/v1"

// maxReadVersion is the newest tag ReadReport accepts. Earlier writers
// stamped v2..v6 for each optional section they carried; those reports
// still read.
const maxReadVersion = 6

// schemaVersion renders revision n as its wire tag ("vanguard-telemetry/vN").
func schemaVersion(n int) string { return "vanguard-telemetry/v" + strconv.Itoa(n) }

// schemaAccepted reports whether tag is a readable schema revision.
func schemaAccepted(tag string) bool {
	for n := 1; n <= maxReadVersion; n++ {
		if tag == schemaVersion(n) {
			return true
		}
	}
	return false
}

// Report is the single machine-readable schema shared by every CLI's
// -json flag: vgrun emits one benchmark with one timing run, spec emits
// every benchmark of every suite, ablate emits sweeps. Consumers key on
// Schema before trusting the rest.
type Report struct {
	Schema     string            `json:"schema"`
	Tool       string            `json:"tool"`
	Benchmarks []*BenchReport    `json:"benchmarks,omitempty"`
	Ablations  []*AblationReport `json:"ablations,omitempty"`
	// Engine records how the experiment engine executed the tool's runs.
	// It is the only non-deterministic part of a report (wall times), so
	// differential consumers compare reports with Engine stripped.
	Engine *EngineReport `json:"engine,omitempty"`
	// Sweep is the engine flight recording (per-unit lifecycle spans),
	// present only when the tool ran with the sweep recorder on
	// (-sweep-trace). Like Engine it
	// carries wall times, so differential consumers strip it too.
	Sweep *SweepReport `json:"sweep,omitempty"`
}

// EngineReport is the experiment-engine telemetry of one tool invocation:
// worker-pool size, run-cache effectiveness, and per-unit wall times in
// enumeration order.
type EngineReport struct {
	Jobs        int          `json:"jobs"`
	Units       int          `json:"units"`
	CacheHits   int          `json:"cache_hits"`
	CacheMisses int          `json:"cache_misses"`
	WallMS      float64      `json:"wall_ms"`
	UnitWall    []EngineUnit `json:"unit_wall,omitempty"`
}

// EngineUnit is one executed experiment unit.
type EngineUnit struct {
	Label    string  `json:"label"`
	WallMS   float64 `json:"wall_ms"`
	CacheHit bool    `json:"cache_hit,omitempty"`
}

// NewReport builds an empty report for the named tool.
func NewReport(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool}
}

// BenchReport is one benchmark's measurements: the transform summary (if
// the decomposed branch transformation ran) and one RunReport per
// (label, input, width) timing run.
type BenchReport struct {
	Name      string           `json:"name"`
	Suite     string           `json:"suite,omitempty"`
	Transform *TransformReport `json:"transform,omitempty"`
	Runs      []*RunReport     `json:"runs"`
}

// TransformReport summarizes one program's decomposed branch
// transformation (the core.Report fields downstream tooling needs).
type TransformReport struct {
	Converted     int            `json:"converted"`
	ForwardStatic int            `json:"forward_static"`
	PBCPct        float64        `json:"pbc_pct"`
	PISCSPct      float64        `json:"piscs_pct"`
	StaticBefore  int            `json:"static_before"`
	StaticAfter   int            `json:"static_after"`
	Branches      []BranchReport `json:"branches,omitempty"`
}

// BranchReport is one converted branch.
type BranchReport struct {
	ID             int     `json:"id"`
	Bias           float64 `json:"bias"`
	Predictability float64 `json:"predictability"`
	Execs          int64   `json:"execs"`
	SlicePushed    int     `json:"slice_pushed"`
	Hoisted        int     `json:"hoisted"`
	Temps          int     `json:"temps"`
}

// RunReport is one timing run: scalar counters, derived rates, and the
// latency/occupancy histograms. Counter and histogram names are stable
// snake_case keys (see DESIGN.md's Observability section).
type RunReport struct {
	Label    string             `json:"label,omitempty"` // "base" | "exp" | "timing"
	Input    string             `json:"input,omitempty"`
	Width    int                `json:"width"`
	Counters map[string]int64   `json:"counters"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	Hists    map[string]*Hist   `json:"hists,omitempty"`
	// Samples is the cycle-window time series, present only when the run
	// was sampled (-sample-window).
	Samples *sample.Series `json:"samples,omitempty"`
	// Attribution is the per-cause issue-slot accounting, present only
	// when the run attributed cycles (-attr).
	Attribution *attr.Report `json:"attribution,omitempty"`
	// Pipeview is the per-instruction lifetime capture, present only when
	// the run recorded a pipeline waterfall (-pipeview).
	Pipeview *PipeviewReport `json:"pipeview,omitempty"`
	// Bpredstudy is the predictor observatory (per-table provider usage,
	// occupancy/aliasing, and the per-branch predictability
	// classification), present only when the run probed its predictor
	// (-bpred-report/-bpred-csv).
	Bpredstudy *bpred.StudyReport `json:"bpredstudy,omitempty"`
}

// AblationReport is one sweep of a design parameter.
type AblationReport struct {
	Title  string          `json:"title"`
	Points []AblationPoint `json:"points"`
}

// AblationPoint is one configuration of a sweep.
type AblationPoint struct {
	Label      string  `json:"label"`
	SpeedupPct float64 `json:"speedup_pct"`
}

// Write renders the report as indented JSON stamped with Schema.
func (r *Report) Write(w io.Writer) error {
	r.Schema = Schema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report and verifies its schema tag.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if !schemaAccepted(r.Schema) {
		return nil, &SchemaError{Got: r.Schema}
	}
	return &r, nil
}

// SchemaError reports a schema-tag mismatch.
type SchemaError struct{ Got string }

func (e *SchemaError) Error() string {
	return "trace: report schema " + e.Got + " (want " + schemaVersion(1) + ".." + schemaVersion(maxReadVersion) + ")"
}
