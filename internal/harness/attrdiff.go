package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"vanguard/internal/attr"
	"vanguard/internal/core"
	"vanguard/internal/metrics"
	"vanguard/internal/profile"
	"vanguard/internal/textplot"
	"vanguard/internal/workload"
)

// AttrDiff is the differential attribution of one benchmark: the same
// workload simulated as the baseline binary and the vanguard
// (decomposed-branch) binary with cycle attribution on, so the speedup
// decomposes into which causes shrank — and, per static BranchID, which
// converted branches paid off.
type AttrDiff struct {
	Benchmark string
	Width     int
	Input     workload.Input
	Base, Exp *attr.Report
	Profile   *profile.Profile
	Transform *core.Report
}

// RunAttrDiff measures one benchmark's baseline-vs-vanguard attribution
// at one width on the first REF input, through the ordinary experiment
// engine (so the run cache and monitor apply). Attribution is forced on
// regardless of o.Attr.
func RunAttrDiff(c workload.Config, o Options, width int) (*AttrDiff, error) {
	_, d, err := runDiff(c, o, width)
	return d, err
}

// runDiff runs the benchmark's first REF input at width with attribution
// on and returns the run with its differential attribution.
func runDiff(c workload.Config, o Options, width int) (*WidthRun, *AttrDiff, error) {
	o.Attr = true
	o.Widths = []int{width}
	if len(o.RefInputs) == 0 {
		return nil, nil, fmt.Errorf("attr-diff %s: no REF inputs", c.Name)
	}
	o.RefInputs = o.RefInputs[:1]
	res, err := RunBenchmark(c, o)
	if err != nil {
		return nil, nil, err
	}
	d, err := res.AttrDiff(width)
	if err != nil {
		return nil, nil, err
	}
	return res.run(width), d, nil
}

// AttrDiff builds the differential attribution of the first REF input's
// run at width, which must have been simulated with attribution on.
func (b *BenchResult) AttrDiff(width int) (*AttrDiff, error) {
	wr := b.run(width)
	if wr == nil {
		return nil, fmt.Errorf("attr-diff %s: no w%d run", b.Config.Name, width)
	}
	if wr.Base.Attr == nil || wr.Exp.Attr == nil {
		return nil, fmt.Errorf("attr-diff %s: simulation returned no attribution", b.Config.Name)
	}
	return &AttrDiff{
		Benchmark: b.Config.Name,
		Width:     width,
		Input:     b.Inputs[0].Input,
		Base:      wr.Base.Attr,
		Exp:       wr.Exp.Attr,
		Profile:   b.Profile,
		Transform: b.Report,
	}, nil
}

// SpeedupPct returns the baseline→vanguard speedup of the diffed run.
func (d *AttrDiff) SpeedupPct() float64 {
	return metrics.SpeedupPct(d.Base.Cycles, d.Exp.Cycles)
}

// writeHeadline writes the line every text rendering of the diff opens
// with: the run and its cycle counts on both binaries.
func (d *AttrDiff) writeHeadline(w io.Writer) {
	in := ""
	if d.Input.Iters > 0 {
		in = fmt.Sprintf(" seed=%d iters=%d", d.Input.Seed, d.Input.Iters)
	}
	fmt.Fprintf(w, "%s w%d%s: %d -> %d cycles (%+.2f%% speedup)\n",
		d.Benchmark, d.Width, in, d.Base.Cycles, d.Exp.Cycles, d.SpeedupPct())
}

// BranchDelta is one static branch's before/after attribution, joined
// with its TRAIN-profile character and whether the transform converted
// it. Slots count everything attributed to the branch (mispredict +
// condition-wait, both plain and decomposed forms); Delta is
// BaseSlots-ExpSlots, positive when vanguard recovered slots.
type BranchDelta struct {
	ID             int
	Bias           float64
	Predictability float64
	Converted      bool
	BaseSlots      int64
	ExpSlots       int64
	Delta          int64
}

// BranchDeltas joins the two reports over the union of their BranchIDs,
// sorted most-recovered first (ties by ID). Branch 0 (unassigned) is
// skipped: it aggregates unnumbered control flow, not a static branch.
func (d *AttrDiff) BranchDeltas() []BranchDelta {
	ids := map[int]bool{}
	for i := range d.Base.Branches {
		ids[d.Base.Branches[i].ID] = true
	}
	for i := range d.Exp.Branches {
		ids[d.Exp.Branches[i].ID] = true
	}
	converted := map[int]bool{}
	if d.Transform != nil {
		for i := range d.Transform.Converted {
			converted[d.Transform.Converted[i].ID] = true
		}
	}
	var out []BranchDelta
	for id := range ids {
		if id == 0 {
			continue
		}
		baseRow, expRow := d.Base.Branch(id), d.Exp.Branch(id)
		bd := BranchDelta{
			ID:        id,
			Converted: converted[id],
			BaseSlots: baseRow.TotalSlots(),
			ExpSlots:  expRow.TotalSlots(),
		}
		bd.Delta = bd.BaseSlots - bd.ExpSlots
		if d.Profile != nil {
			if b := d.Profile.ByID[id]; b != nil {
				bd.Bias, bd.Predictability = b.Bias(), b.Predictability()
			}
		}
		out = append(out, bd)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Delta != out[j].Delta {
			return out[i].Delta > out[j].Delta
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CPIStackBars returns the two runs as stacked bars in cycles (slots ÷
// width), segment order attr.Causes().
func (d *AttrDiff) CPIStackBars() (names []string, bars []textplot.StackedBar) {
	bars = []textplot.StackedBar{
		{Label: "baseline", Segments: stackCycles(d.Base)},
		{Label: "vanguard", Segments: stackCycles(d.Exp)},
	}
	return causeKeys(), bars
}

// causeKeys returns the cause keys in attr.Causes() order.
func causeKeys() []string {
	var names []string
	for _, c := range attr.Causes() {
		names = append(names, c.Key())
	}
	return names
}

// stackCycles returns a run's CPI stack in cycles (slots ÷ width).
func stackCycles(r *attr.Report) []float64 {
	st := r.Stack()
	for i := range st {
		st[i] /= float64(r.Width)
	}
	return st
}

// WriteAttrDiff renders the differential as terminal text: the stacked
// CPI bars, the per-cause delta table, the per-branch delta table (top
// n), and the offender tables (top mispredicting branches and top
// miss-cost loads of each binary).
func WriteAttrDiff(w io.Writer, d *AttrDiff, topN int) {
	if topN <= 0 {
		topN = 10
	}
	d.writeHeadline(w)

	names, bars := d.CPIStackBars()
	textplot.StackedBars(w, "cycle stack (cycles by cause)", names, bars, 60)

	fmt.Fprintf(w, "\nper-cause slots (Δ = baseline - vanguard, positive = recovered):\n")
	fmt.Fprintf(w, "  %-14s %12s %12s %12s\n", "cause", "baseline", "vanguard", "delta")
	for _, c := range attr.Causes() {
		b, e := d.Base.Slots[c.Key()], d.Exp.Slots[c.Key()]
		if b == 0 && e == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %12d %12d %+12d\n", c.Key(), b, e, b-e)
	}

	deltas := d.BranchDeltas()
	if len(deltas) > topN {
		deltas = deltas[:topN]
	}
	fmt.Fprintf(w, "\ntop %d branches by recovered slots:\n", len(deltas))
	fmt.Fprintf(w, "  %-6s %-5s %-5s %-4s %12s %12s %12s\n",
		"branch", "bias", "pred", "conv", "baseline", "vanguard", "delta")
	for _, bd := range deltas {
		fmt.Fprintf(w, "  %-6d %5.2f %5.2f %-4s %12d %12d %+12d\n",
			bd.ID, bd.Bias, bd.Predictability, pick(bd.Converted, "yes", "-"), bd.BaseSlots, bd.ExpSlots, bd.Delta)
	}

	WriteAttrTables(w, "baseline", d.Base, topN)
	WriteAttrTables(w, "vanguard", d.Exp, topN)
}

// WriteAttrReport renders one run's attribution standalone (the vgrun
// -attr text surface): its CPI stack as a single stacked bar plus the
// offender tables.
func WriteAttrReport(w io.Writer, title string, r *attr.Report, topN int) {
	textplot.StackedBars(w, title, causeKeys(), []textplot.StackedBar{{Label: "cycles", Segments: stackCycles(r)}}, 60)
	WriteAttrTables(w, "timing", r, topN)
}

// WriteAttrTables renders one binary's offender tables: the top
// mispredicting/stalling branches and the top miss-cost loads.
func WriteAttrTables(w io.Writer, label string, r *attr.Report, topN int) {
	if brs := r.TopBranches(topN); len(brs) > 0 {
		fmt.Fprintf(w, "\n%s: top mispredicting/stalling branches:\n", label)
		fmt.Fprintf(w, "  %-6s %12s %12s %12s %12s\n",
			"branch", "br_misp", "res_misp", "cond_wait", "res_window")
		for _, b := range brs {
			fmt.Fprintf(w, "  %-6d %12d %12d %12d %12d\n",
				b.ID, b.BrMispredict, b.ResMispredict, b.CondWait, b.ResolveWindow)
		}
	}
	if lds := r.TopLoads(topN); len(lds) > 0 {
		fmt.Fprintf(w, "%s: top miss-cost loads:\n", label)
		fmt.Fprintf(w, "  %-8s %12s\n", "pc", "slots")
		for _, l := range lds {
			fmt.Fprintf(w, "  %-8d %12d\n", l.PC, l.Slots)
		}
	}
}

// attrStackCSVHeader is the stable column order of WriteCPIStackCSV.
var attrStackCSVHeader = []string{"benchmark", "width", "binary", "cause", "slots", "cycles"}

// WriteCPIStackCSV exports the two runs' per-cause slot counts as long-form
// CSV (one row per binary × cause), the plotting-friendly companion of
// the stacked text bars. Returns the number of data rows written.
func WriteCPIStackCSV(w io.Writer, d *AttrDiff) (int, error) {
	var recs [][]string
	for _, bin := range []struct {
		name string
		rep  *attr.Report
	}{{"base", d.Base}, {"exp", d.Exp}} {
		for _, c := range attr.Causes() {
			slots := bin.rep.Slots[c.Key()]
			recs = append(recs, []string{
				d.Benchmark, strconv.Itoa(d.Width), bin.name, c.Key(),
				strconv.FormatInt(slots, 10),
				strconv.FormatFloat(float64(slots)/float64(d.Width), 'f', 2, 64),
			})
		}
	}
	return writeCSV(w, attrStackCSVHeader, recs)
}

// attrDeltaCSVHeader is the stable column order of WriteBranchDeltaCSV.
var attrDeltaCSVHeader = []string{
	"benchmark", "width", "branch", "bias", "predictability", "converted",
	"base_slots", "exp_slots", "delta",
}

// WriteBranchDeltaCSV exports the per-branch delta table as CSV, one row
// per static branch, most-recovered first. Returns the data-row count.
func WriteBranchDeltaCSV(w io.Writer, d *AttrDiff) (int, error) {
	var recs [][]string
	for _, bd := range d.BranchDeltas() {
		recs = append(recs, []string{
			d.Benchmark, strconv.Itoa(d.Width), strconv.Itoa(bd.ID),
			strconv.FormatFloat(bd.Bias, 'f', 4, 64),
			strconv.FormatFloat(bd.Predictability, 'f', 4, 64),
			pick(bd.Converted, "1", "0"),
			strconv.FormatInt(bd.BaseSlots, 10),
			strconv.FormatInt(bd.ExpSlots, 10),
			strconv.FormatInt(bd.Delta, 10),
		})
	}
	return writeCSV(w, attrDeltaCSVHeader, recs)
}

// pick renders a boolean column: on when b holds, else off.
func pick(b bool, on, off string) string {
	if b {
		return on
	}
	return off
}

// writeCSV writes the header and the records as CSV and returns the
// data-row count.
func writeCSV(w io.Writer, header []string, recs [][]string) (int, error) {
	if err := csv.NewWriter(w).WriteAll(append([][]string{header}, recs...)); err != nil {
		return 0, err
	}
	return len(recs), nil
}
