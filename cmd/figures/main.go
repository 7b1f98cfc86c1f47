// Command figures regenerates the characterization figures and the
// predictor-sensitivity study:
//
//	figures -fig 2            predictability vs bias, SPEC 2006 Integer
//	figures -fig 3            predictability vs bias, SPEC 2006 FP
//	figures -sensitivity      Section 5.3 predictor ladder on the four
//	                          hard-to-predict integer benchmarks
//	figures -cpistack mcf     baseline-vs-vanguard CPI stack with per-branch
//	                          delta attribution for one benchmark
//
// Profiling and simulation run on the experiment engine (-jobs bounds the
// worker pool; -cache-dir/-no-cache control the on-disk run cache).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/sample"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// dumpSamples renders the samples sections of a telemetry report: CSV on
// stdout by default (one row per window, see harness.WriteSamplesCSV),
// or per-run sparklines with -plot.
func dumpSamples(path string, plot bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rep, err := trace.ReadReport(f)
	if err != nil {
		log.Fatal(err)
	}
	if !plot {
		rows, err := harness.WriteSamplesCSV(os.Stdout, rep)
		if err != nil {
			log.Fatal(err)
		}
		if rows == 0 {
			log.Fatalf("%s has no samples sections (re-run the producing tool with -sample-window)", path)
		}
		log.Printf("%d window rows", rows)
		return
	}
	plotted := 0
	for _, b := range rep.Benchmarks {
		for _, run := range b.Runs {
			sr := run.Samples
			if sr == nil || len(sr.Windows) == 0 {
				continue
			}
			name := b.Name
			if run.Label != "" {
				name += "/" + run.Label
			}
			if run.Input != "" {
				name += "/" + run.Input
			}
			fmt.Printf("%s w%d (%d windows of %d cycles):\n", name, run.Width, len(sr.Windows), sr.WindowCycles)
			textplot.Spark(os.Stdout, "  ipc        ", sr.Values(func(w *sample.Window) float64 { return w.IPC() }), 60)
			textplot.Spark(os.Stdout, "  mispredicts", sr.Values(func(w *sample.Window) float64 { return float64(w.Mispredicts()) }), 60)
			textplot.Spark(os.Stdout, "  l1d misses ", sr.Values(func(w *sample.Window) float64 { return float64(w.L1DMisses) }), 60)
			plotted++
		}
	}
	if plotted == 0 {
		log.Fatalf("%s has no samples sections (re-run the producing tool with -sample-window)", path)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig         = flag.Int("fig", 0, "figure to regenerate (2 or 3)")
		sensitivity = flag.Bool("sensitivity", false, "run the Section 5.3 predictor ladder")
		samples     = flag.String("samples", "", "dump the samples sections of a telemetry report (vgrun/spec -json -sample-window output) as CSV on stdout; with -plot, render sparklines instead")
		cpistack    = flag.String("cpistack", "", "render the baseline-vs-vanguard CPI stack and per-branch delta attribution for this benchmark")
		width       = flag.Int("width", 4, "issue width for -cpistack")
		attrCSV     = flag.String("attr-csv", "", "with -cpistack, also write PREFIX.cpistack.csv and PREFIX.branches.csv using this path prefix, and with -bpred-report the classification x conversion join as PREFIX.bpredjoin.csv")
		fast        = flag.Bool("fast", false, "reduced inputs (quick smoke run)")
		plot        = flag.Bool("plot", false, "render ASCII charts instead of tables")
	)
	shared := cli.Register(flag.CommandLine)
	flag.Parse()
	if *attrCSV != "" && *cpistack == "" {
		log.Fatal("-attr-csv needs -cpistack")
	}

	if *samples != "" {
		dumpSamples(*samples, *plot)
		return
	}

	in := workload.TrainInput()
	o := harness.DefaultOptions()
	if *fast {
		in.Iters = 1200
		o = harness.FastOptions()
		o.RefInputs = o.RefInputs[:1]
		o.Widths = []int{4}
	}
	sess := shared.Start(&o)

	switch {
	case *fig == 2 || *fig == 3:
		suite, title := "int2006", "Figure 2: predictability vs bias, top forward branches, SPEC 2006 Int"
		if *fig == 3 {
			suite, title = "fp2006", "Figure 3: predictability vs bias, top forward branches, SPEC 2006 FP"
		}
		cur, err := harness.BiasPredictabilityCurve(suite, in, o)
		if err != nil {
			log.Fatal(err)
		}
		if *plot {
			textplot.Series(os.Stdout, title, [2]string{"bias", "predictability"},
				[2][]float64{cur.Bias, cur.Predictability}, 75, 18)
		} else {
			cur.Write(os.Stdout, title)
		}
	case *cpistack != "":
		c, ok := workload.ByName(*cpistack)
		if !ok {
			log.Fatalf("unknown benchmark %q", *cpistack)
		}
		if shared.BpredReport {
			// The joined run: probe + attribution on the same simulations,
			// so the CPI deltas and the predictability classes line up.
			bd, err := harness.RunBpredDiff(c, o, *width)
			if err != nil {
				log.Fatal(err)
			}
			harness.WriteAttrDiff(os.Stdout, bd.Attr, 10)
			fmt.Println()
			harness.WriteBpredReport(os.Stdout, bd, 10)
			if *attrCSV != "" {
				cli.WriteAttrCSV(*attrCSV, bd.Attr)
				cli.Write(*attrCSV+".bpredjoin.csv", func(w io.Writer) error { _, err := harness.WriteBpredJoinCSV(w, bd); return err })
			}
			if shared.BpredCSV != "" {
				cli.Write(shared.BpredCSV, func(w io.Writer) error { _, err := harness.WriteBpredRuns(w, bd.Runs()...); return err })
			}
			break
		}
		d, err := harness.RunAttrDiff(c, o, *width)
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteAttrDiff(os.Stdout, d, 10)
		if *attrCSV != "" {
			cli.WriteAttrCSV(*attrCSV, d)
		}
	case *sensitivity:
		rows, err := harness.Sensitivity(harness.SensitivityBenchmarks(), o)
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteSensitivity(os.Stdout, rows)
	default:
		flag.Usage()
		fmt.Fprintln(os.Stderr, "need -fig 2, -fig 3, -cpistack BENCH, or -sensitivity")
		os.Exit(2)
	}
	sess.Finish()
}
