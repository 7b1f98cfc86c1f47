package harness

import (
	"io"
	"strconv"

	"vanguard/internal/trace"
)

// sampleCSVHeader is the stable column order of WriteSamplesCSV. The
// per-window columns mirror the telemetry schema's samples section keys.
var sampleCSVHeader = []string{
	"benchmark", "label", "input", "width",
	"start", "end", "committed", "issued",
	"br_mispredicts", "res_mispredicts", "ret_mispredicts",
	"resolves", "predicts", "flushes",
	"stall_empty", "stall_operand", "stall_branch", "stall_resolve", "stall_fu",
	"l1i_misses", "l1d_misses", "l2_misses", "dbb_high_water", "ipc",
}

// WriteSamplesCSV flattens every sampled run of a telemetry report into
// CSV, one row per window — the export path spreadsheet/pandas analysis
// of phase behaviour consumes. Runs without samples contribute nothing;
// it returns the number of data rows written.
func WriteSamplesCSV(w io.Writer, rep *trace.Report) (int, error) {
	var recs [][]string
	d := strconv.FormatInt // shorthand: every numeric column is base-10
	for _, b := range rep.Benchmarks {
		for _, run := range b.Runs {
			if run.Samples == nil {
				continue
			}
			for i := range run.Samples.Windows {
				win := &run.Samples.Windows[i]
				recs = append(recs, []string{
					b.Name, run.Label, run.Input, strconv.Itoa(run.Width),
					d(win.Start, 10), d(win.End, 10), d(win.Committed, 10), d(win.Issued, 10),
					d(win.BrMispredicts, 10), d(win.ResMispredicts, 10), d(win.RetMispredicts, 10),
					d(win.Resolves, 10), d(win.Predicts, 10), d(win.Flushes, 10),
					d(win.StallEmpty, 10), d(win.StallOperand, 10), d(win.StallBranch, 10),
					d(win.StallResolve, 10), d(win.StallFU, 10),
					d(win.L1IMisses, 10), d(win.L1DMisses, 10), d(win.L2Misses, 10),
					strconv.Itoa(win.DBBHighWater),
					strconv.FormatFloat(win.IPC(), 'f', 6, 64),
				})
			}
		}
	}
	return writeCSV(w, sampleCSVHeader, recs)
}
