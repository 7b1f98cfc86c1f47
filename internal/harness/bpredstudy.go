package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"vanguard/internal/bpred"
	"vanguard/internal/workload"
)

// BpredDiff is the predictor observatory of one benchmark joined with its
// differential attribution: the same workload simulated as the baseline
// and vanguard binaries with both the probe and cycle attribution on, so
// every converted branch's recovered slots line up with its measured
// predictability class — which conversions rescued genuinely
// unpredictable branches versus merely mispredicted ones.
type BpredDiff struct {
	// Base and Exp are the two binaries' predictor studies.
	Base, Exp *bpred.StudyReport
	// Attr is the matching differential attribution (same runs — the
	// probe and the recorder observe the identical simulations). It also
	// names the benchmark, width and input.
	Attr *AttrDiff
}

// RunBpredDiff is RunAttrDiff with the predictor probe forced on: one
// benchmark's baseline-vs-vanguard predictor study at one width on the
// first REF input, joined with its differential attribution.
func RunBpredDiff(c workload.Config, o Options, width int) (*BpredDiff, error) {
	o.Probe = true
	wr, d, err := runDiff(c, o, width)
	if err != nil {
		return nil, err
	}
	if wr.Base.Bpred == nil || wr.Exp.Bpred == nil {
		return nil, fmt.Errorf("bpred-diff %s: simulation returned no predictor study", c.Name)
	}
	return &BpredDiff{Base: wr.Base.Bpred, Exp: wr.Exp.Bpred, Attr: d}, nil
}

// Runs returns the two binaries' studies as rows of the long-form
// predictor CSV (WriteBpredRuns).
func (d *BpredDiff) Runs() []BpredRun {
	a := d.Attr
	return []BpredRun{
		{Benchmark: a.Benchmark, Input: a.Input, Width: a.Width, Binary: "base", Study: d.Base},
		{Benchmark: a.Benchmark, Input: a.Input, Width: a.Width, Binary: "exp", Study: d.Exp},
	}
}

// BpredJoinRow is one static branch of the classification × conversion
// join: its attribution delta (recovered issue slots, conversion flag,
// TRAIN-profile character) annotated with the baseline study's measured
// predictability. Class is "unseen" when the baseline probe never
// observed the branch resolve.
type BpredJoinRow struct {
	BranchDelta
	// Class is the baseline-run predictability class (biased /
	// regime-switching / random) — the binary before conversion, so the
	// join answers whether the transform targeted branches no predictor
	// was going to save.
	Class          string
	MeasuredBias   float64
	TransitionRate float64
	Entropy        float64
	Execs          int64
	MispredictRate float64
}

// JoinRows joins the attribution deltas with the baseline study's
// per-branch digests, preserving the deltas' most-recovered-first order.
func (d *BpredDiff) JoinRows() []BpredJoinRow {
	var out []BpredJoinRow
	for _, bd := range d.Attr.BranchDeltas() {
		row := BpredJoinRow{BranchDelta: bd, Class: "unseen"}
		if dg := d.Base.Class(bd.ID); dg != nil {
			row.Class = dg.Class
			row.MeasuredBias = dg.Bias
			row.TransitionRate = dg.TransitionRate
			row.Entropy = dg.Entropy
			row.Execs = dg.Execs
			row.MispredictRate = dg.MispredictRate()
		}
		out = append(out, row)
	}
	return out
}

// WriteBpredStudy renders one run's study as terminal text: the headline
// rates, the provider mix, confidence, table occupancy and aliasing, the
// class totals, and the top mispredicting branches with their measured
// character.
func WriteBpredStudy(w io.Writer, label string, st *bpred.StudyReport, topN int) {
	if topN <= 0 {
		topN = 10
	}
	fmt.Fprintf(w, "%s: %s", label, st.Predictor)
	if st.SizeBits > 0 {
		fmt.Fprintf(w, " (%d bits)", st.SizeBits)
	}
	mispPct := 0.0
	if st.Resolves > 0 {
		mispPct = 100 * float64(st.Mispredicts) / float64(st.Resolves)
	}
	fmt.Fprintf(w, ": %d resolves, %d updates, %d mispredicts (%.2f%%)\n",
		st.Resolves, st.Updates, st.Mispredicts, mispPct)
	if st.AllocTried > 0 {
		fmt.Fprintf(w, "  allocations: %d placed / %d tried (%.1f%% hit)\n",
			st.AllocPlaced, st.AllocTried, 100*float64(st.AllocPlaced)/float64(st.AllocTried))
	}

	if len(st.Providers) > 0 {
		fmt.Fprintf(w, "  provider mix:\n")
		fmt.Fprintf(w, "    %-10s %12s %8s %8s %10s\n", "table", "use", "use%", "acc%", "weak")
		for _, p := range st.Providers {
			usePct, accPct := 0.0, 0.0
			if st.Updates > 0 {
				usePct = 100 * float64(p.Use) / float64(st.Updates)
			}
			if p.Use > 0 {
				accPct = 100 * float64(p.Correct) / float64(p.Use)
			}
			fmt.Fprintf(w, "    %-10s %12d %7.1f%% %7.1f%% %10d\n", p.Table, p.Use, usePct, accPct, p.Weak)
		}
	}

	c := st.Confidence
	if total := c.ConfidentCorrect + c.ConfidentWrong + c.WeakCorrect + c.WeakWrong; total > 0 {
		fmt.Fprintf(w, "  confidence: confident %d right / %d wrong, weak %d right / %d wrong\n",
			c.ConfidentCorrect, c.ConfidentWrong, c.WeakCorrect, c.WeakWrong)
	}

	if len(st.Survey) > 0 {
		alias := map[string]bpred.AliasReport{}
		for _, a := range st.Aliasing {
			alias[a.Name] = a
		}
		fmt.Fprintf(w, "  tables:\n")
		fmt.Fprintf(w, "    %-10s %8s %9s %8s %12s %12s\n", "table", "entries", "occupied", "weak", "updates", "conflicts")
		for _, s := range st.Survey {
			a := alias[s.Name]
			fmt.Fprintf(w, "    %-10s %8d %9d %8d %12d %12d\n",
				s.Name, s.Entries, s.Occupied, s.Weak, a.Updates, a.Conflicts)
		}
	}

	if len(st.Classes) > 0 {
		names := make([]string, 0, len(st.Classes))
		for name := range st.Classes {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  predictability classes:\n")
		fmt.Fprintf(w, "    %-10s %9s %12s %12s %8s\n", "class", "branches", "execs", "mispredicts", "misp%")
		for _, name := range names {
			ct := st.Classes[name]
			pct := 0.0
			if ct.Execs > 0 {
				pct = 100 * float64(ct.Mispredicts) / float64(ct.Execs)
			}
			fmt.Fprintf(w, "    %-10s %9d %12d %12d %7.2f%%\n", name, ct.Branches, ct.Execs, ct.Mispredicts, pct)
		}
	}

	top := make([]bpred.BranchDigest, len(st.Branches))
	copy(top, st.Branches)
	sort.Slice(top, func(i, j int) bool {
		if top[i].Mispredicts != top[j].Mispredicts {
			return top[i].Mispredicts > top[j].Mispredicts
		}
		return top[i].ID < top[j].ID
	})
	if len(top) > topN {
		top = top[:topN]
	}
	if len(top) > 0 {
		fmt.Fprintf(w, "  top %d mispredicting branches:\n", len(top))
		fmt.Fprintf(w, "    %-6s %-8s %12s %8s %6s %6s %8s\n",
			"branch", "class", "execs", "misp%", "bias", "trans", "entropy")
		for _, d := range top {
			fmt.Fprintf(w, "    %-6d %-8s %12d %7.2f%% %6.2f %6.2f %8.2f\n",
				d.ID, d.Class, d.Execs, 100*d.MispredictRate(), d.Bias, d.TransitionRate, d.Entropy)
		}
	}
}

// WriteBpredReport renders the differential as terminal text: both
// binaries' studies plus the classification × conversion join — for each
// branch, what the baseline predictor measured about it and what the
// conversion recovered.
func WriteBpredReport(w io.Writer, d *BpredDiff, topN int) {
	if topN <= 0 {
		topN = 10
	}
	d.Attr.writeHeadline(w)
	WriteBpredStudy(w, "baseline", d.Base, topN)
	WriteBpredStudy(w, "vanguard", d.Exp, topN)

	rows := d.JoinRows()
	if len(rows) > topN {
		rows = rows[:topN]
	}
	fmt.Fprintf(w, "classification x conversion (top %d by recovered slots):\n", len(rows))
	fmt.Fprintf(w, "  %-6s %-8s %-4s %6s %6s %8s %8s %12s %12s %12s\n",
		"branch", "class", "conv", "bias", "trans", "entropy", "misp%", "baseline", "vanguard", "delta")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6d %-8s %-4s %6.2f %6.2f %8.2f %7.2f%% %12d %12d %+12d\n",
			r.ID, r.Class, pick(r.Converted, "yes", "-"), r.MeasuredBias, r.TransitionRate, r.Entropy,
			100*r.MispredictRate, r.BaseSlots, r.ExpSlots, r.Delta)
	}
}

// bpredJoinCSVHeader is the stable column order of WriteBpredJoinCSV.
var bpredJoinCSVHeader = []string{
	"benchmark", "width", "branch", "class", "converted",
	"bias", "transition_rate", "entropy", "execs", "mispredict_rate",
	"base_slots", "exp_slots", "delta",
}

// WriteBpredJoinCSV exports the classification × conversion join as CSV,
// one row per static branch, most-recovered first. Returns the data-row
// count.
func WriteBpredJoinCSV(w io.Writer, d *BpredDiff) (int, error) {
	var recs [][]string
	for _, r := range d.JoinRows() {
		recs = append(recs, []string{
			d.Attr.Benchmark, strconv.Itoa(d.Attr.Width), strconv.Itoa(r.ID), r.Class, pick(r.Converted, "1", "0"),
			strconv.FormatFloat(r.MeasuredBias, 'f', 4, 64),
			strconv.FormatFloat(r.TransitionRate, 'f', 4, 64),
			strconv.FormatFloat(r.Entropy, 'f', 4, 64),
			strconv.FormatInt(r.Execs, 10),
			strconv.FormatFloat(r.MispredictRate, 'f', 4, 64),
			strconv.FormatInt(r.BaseSlots, 10),
			strconv.FormatInt(r.ExpSlots, 10),
			strconv.FormatInt(r.Delta, 10),
		})
	}
	return writeCSV(w, bpredJoinCSVHeader, recs)
}

// bpredCSVHeader is the stable column order of the long-form predictor
// CSV: one row per (benchmark, input, width, binary, branch) digest.
var bpredCSVHeader = []string{
	"benchmark", "seed", "iters", "width", "binary", "predictor",
	"branch", "class", "execs", "taken", "mispredicts",
	"bias", "transition_rate", "entropy", "mispredict_rate",
}

// BpredRun is one probed simulation as the long-form predictor CSV keys
// its rows.
type BpredRun struct {
	Benchmark string
	Input     workload.Input
	Width     int
	Binary    string
	Study     *bpred.StudyReport
}

// WriteBpredCSV exports every probed run of a result set as long-form CSV
// (one row per benchmark × input × width × binary × classified branch) —
// the spec/ablate/figures bulk surface. Runs without a study (probe off)
// are skipped. Returns the data-row count.
func WriteBpredCSV(w io.Writer, results []*BenchResult) (int, error) {
	var runs []BpredRun
	for _, res := range results {
		for _, ir := range res.Inputs {
			for _, wr := range ir.Runs {
				runs = append(runs,
					BpredRun{Benchmark: res.Config.Name, Input: ir.Input, Width: wr.Width, Binary: "base", Study: wr.Base.Bpred},
					BpredRun{Benchmark: res.Config.Name, Input: ir.Input, Width: wr.Width, Binary: "exp", Study: wr.Exp.Bpred})
			}
		}
	}
	return WriteBpredRuns(w, runs...)
}

// WriteBpredRuns is the long-form predictor CSV's one writer: the header,
// then each study's digests in order. Runs without a study are skipped.
// Returns the data-row count.
func WriteBpredRuns(w io.Writer, runs ...BpredRun) (int, error) {
	var recs [][]string
	for _, run := range runs {
		if run.Study == nil {
			continue
		}
		for i := range run.Study.Branches {
			d := &run.Study.Branches[i]
			recs = append(recs, []string{
				run.Benchmark, strconv.FormatInt(run.Input.Seed, 10), strconv.FormatInt(run.Input.Iters, 10),
				strconv.Itoa(run.Width), run.Binary, run.Study.Predictor,
				strconv.Itoa(d.ID), d.Class,
				strconv.FormatInt(d.Execs, 10),
				strconv.FormatInt(d.Taken, 10),
				strconv.FormatInt(d.Mispredicts, 10),
				strconv.FormatFloat(d.Bias, 'f', 4, 64),
				strconv.FormatFloat(d.TransitionRate, 'f', 4, 64),
				strconv.FormatFloat(d.Entropy, 'f', 4, 64),
				strconv.FormatFloat(d.MispredictRate(), 'f', 4, 64),
			})
		}
	}
	return writeCSV(w, bpredCSVHeader, recs)
}

// WriteBpredStudies renders, per benchmark of a probed result set, the
// table-level studies of both binaries on the first REF input at the
// given width (the input's first run when that width was not simulated),
// with topN rows per table. Benchmarks without a study are skipped.
func WriteBpredStudies(w io.Writer, results []*BenchResult, width, topN int) {
	fmt.Fprintln(w, "Predictor observatory (first REF input):")
	for _, r := range results {
		if len(r.Inputs) == 0 || len(r.Inputs[0].Runs) == 0 {
			continue
		}
		wr := r.run(width)
		if wr == nil {
			wr = &r.Inputs[0].Runs[0]
		}
		if wr.Base.Bpred == nil || wr.Exp.Bpred == nil {
			continue
		}
		fmt.Fprintln(w)
		WriteBpredStudy(w, fmt.Sprintf("%s/base w%d", r.Config.Name, wr.Width), wr.Base.Bpred, topN)
		WriteBpredStudy(w, fmt.Sprintf("%s/exp w%d", r.Config.Name, wr.Width), wr.Exp.Bpred, topN)
	}
}
