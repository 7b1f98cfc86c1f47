// Command spec regenerates the paper's suite-level tables and figures:
//
//	spec -table 2           Table 2 (per-benchmark metrics, SPEC 2006)
//	spec -fig 8..13         speedup figures across suites and widths
//	spec -fig 14            issued-instruction increase
//	spec -icache            Section 6.1 (24KB vs 32KB L1-I)
//	spec -csv out.csv       machine-readable dump of everything (flat CSV)
//	spec -json out.json     structured telemetry report for all suites
//	spec -all               all of the above to stdout
//
// Use -fast for a quick smoke run with reduced inputs. Simulations run on
// the experiment engine: -jobs bounds the worker pool, and the
// content-keyed run cache (-cache-dir, -no-cache) reuses simulation
// results across tables, figures, and invocations. Output is byte-stable
// for any -jobs value; only the engine section of -json reports (wall
// times, hit counts) varies.
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
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spec: ")
	var (
		table     = flag.Int("table", 0, "regenerate a table (2)")
		fig       = flag.Int("fig", 0, "regenerate a figure (8-14)")
		icache    = flag.Bool("icache", false, "run the Section 6.1 I-cache study")
		csv       = flag.String("csv", "", "write CSV results for all suites to a file")
		jsonF     = flag.String("json", "", "write a structured telemetry report for all suites to a file")
		report    = flag.String("report", "", "write a consolidated markdown report for all suites to a file")
		all       = flag.Bool("all", false, "run every table and figure")
		fast      = flag.Bool("fast", false, "reduced inputs (quick smoke run)")
		plot      = flag.Bool("plot", false, "also render speedup figures as ASCII bar charts")
		sampleWin = flag.Int64("sample-window", 0, fmt.Sprintf("record a per-run counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		pview     = flag.String("pipeview", "", "capture per-instruction pipeline lifetimes on the named benchmark's simulations; -json reports gain per-run pipeview sections")
	)
	shared := cli.Register(flag.CommandLine)
	flag.Parse()
	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
	}
	o.SampleWindow = *sampleWin
	o.PipeviewBench = *pview
	sess := shared.Start(&o)

	sc := harness.NewSuiteCache(o)
	suite := func(name string) []*harness.BenchResult {
		rs, err := sc.Suite(name)
		if err != nil {
			log.Fatal(err)
		}
		return rs
	}

	allSuites := func() []*harness.BenchResult {
		var rs []*harness.BenchResult
		for _, s := range workload.AllSuites() {
			rs = append(rs, suite(s)...)
		}
		return rs
	}

	runTable2 := func() {
		fmt.Println("Table 2: SPEC 2006 Int and FP metrics (4-wide, all REF inputs)")
		harness.WriteTable2(os.Stdout, append(suite("int2006"), suite("fp2006")...))
	}
	maybePlot := func(title string, rs []*harness.BenchResult) {
		if !*plot {
			return
		}
		var bars []textplot.Bar
		for _, r := range rs {
			bars = append(bars, textplot.Bar{Label: r.Config.Name, Value: r.SpeedupAllRefsPct(4)})
		}
		textplot.Bars(os.Stdout, title+" (4-wide)", bars, 50)
	}
	figures := map[int]func(){
		8: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 8: SPEC 2006 Integer % speedup, all REF inputs", suite("int2006"), o.Widths, false)
			maybePlot("Figure 8", suite("int2006"))
		},
		9: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 9: SPEC 2006 Integer % speedup, best REF input", suite("int2006"), o.Widths, true)
		},
		10: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 10: SPEC 2000 Integer % speedup, all REF inputs", suite("int2000"), o.Widths, false)
		},
		11: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 11: SPEC 2000 Integer % speedup, best REF input", suite("int2000"), o.Widths, true)
		},
		12: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 12: SPEC 2006 FP % speedup, all REF inputs", suite("fp2006"), o.Widths, false)
			maybePlot("Figure 12", suite("fp2006"))
		},
		13: func() {
			harness.WriteSpeedupFigure(os.Stdout,
				"Figure 13: SPEC 2000 FP % speedup, all REF inputs", suite("fp2000"), o.Widths, false)
		},
		14: func() {
			harness.WriteIssuedFigure(os.Stdout, append(suite("int2006"), suite("fp2006")...))
		},
	}
	runICache := func() {
		rows, err := harness.RunICacheStudy("int2006", o)
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteICacheStudy(os.Stdout, rows)
	}

	did := false
	if *table == 2 {
		runTable2()
		did = true
	}
	if f, ok := figures[*fig]; ok {
		f()
		did = true
	}
	if *icache {
		runICache()
		did = true
	}
	if shared.BpredReport {
		shared.WriteBpred(os.Stdout, allSuites(), 4, 5)
		did = true
	}
	if *all {
		runTable2()
		for _, k := range []int{8, 9, 10, 11, 12, 13, 14} {
			fmt.Println()
			figures[k]()
		}
		fmt.Println()
		runICache()
		did = true
	}
	if *csv != "" {
		rs := allSuites()
		cli.Write(*csv, func(w io.Writer) error { harness.WriteCSV(w, rs, o.Widths); return nil })
		did = true
	}
	if *jsonF != "" {
		rep := harness.JSONReport("spec", allSuites())
		sess.Telemetry(rep)
		cli.Write(*jsonF, rep.Write)
		did = true
	}
	if *report != "" {
		byName := map[string][]*harness.BenchResult{}
		for _, s := range workload.AllSuites() {
			byName[s] = suite(s)
		}
		cli.Write(*report, func(w io.Writer) error { harness.WriteMarkdownReport(w, byName, o.Widths); return nil })
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
	sess.Finish()
}
