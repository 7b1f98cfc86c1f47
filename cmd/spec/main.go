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
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/sample"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// startProfiles enables CPU/heap profiling per the -cpuprofile and
// -memprofile flags; the returned stop must run on (clean) exit.
func startProfiles(cpu, memf string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if memf != "" {
			f, err := os.Create(memf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}
	}
}

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
		schemaF   = flag.Bool("schema", false, "print the telemetry schema version -json would emit, then exit")
		sampleWin = flag.Int64("sample-window", 0, fmt.Sprintf("record a per-run counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		attrF     = flag.Bool("attr", false, "attribute every issue slot to a cause on every simulation; -json reports gain per-run attribution sections (schema "+trace.SchemaV3+")")
		bpredRep  = flag.Bool("bpred-report", false, "probe the predictor on every simulation and print each benchmark's table-level study; -json reports gain per-run bpredstudy sections (schema "+trace.SchemaV6+")")
		bpredCSV  = flag.String("bpred-csv", "", "probe the predictor on every simulation and write the per-branch classifications of all suites as CSV to this file")
		pview     = flag.String("pipeview", "", "capture per-instruction pipeline lifetimes on the named benchmark's simulations; -json reports gain per-run pipeview sections (schema "+trace.SchemaV4+")")
		jobs      = flag.Int("jobs", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache-dir", engine.DefaultDir(), "on-disk run cache directory")
		noCache   = flag.Bool("no-cache", false, "disable the on-disk run cache")
		progress  = flag.Bool("progress", false, "render a live engine status line on stderr")
		listen    = flag.String("listen", "", "serve live progress over HTTP on this address (e.g. :0): /progress JSON, /metrics Prometheus text, /debug/sweep dashboard, /healthz, /debug/pprof")
		sweepOut  = flag.String("sweep-trace", "", "record the engine flight recording (one span per unit lifecycle phase) and write it as a "+trace.SweepSchema+" JSON artifact to this file; -json reports gain a sweep section (schema "+trace.SchemaV5+")")
		sweepChr  = flag.String("sweep-chrome", "", "record the engine flight recording and write it as a Chrome trace_event timeline (one track per worker) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to a file")
		memProf   = flag.String("memprofile", "", "write a heap profile to a file on exit")
	)
	flag.Parse()
	if *schemaF {
		// Reports carry the optional sections (and their tags) only when the
		// producing flag is on; bpredstudy (v6) outranks sweep (v5) outranks
		// pipeview (v4) outranks attribution (v3) outranks sampling (v2).
		switch {
		case *bpredRep || *bpredCSV != "":
			fmt.Println(trace.SchemaV6)
		case *sweepOut != "" || *sweepChr != "":
			fmt.Println(trace.SchemaV5)
		case *pview != "":
			fmt.Println(trace.SchemaV4)
		case *attrF:
			fmt.Println(trace.SchemaV3)
		case *sampleWin > 0:
			fmt.Println(trace.SchemaV2)
		default:
			fmt.Println(trace.Schema)
		}
		return
	}
	stopProfiles := startProfiles(*cpuProf, *memProf)
	defer stopProfiles()
	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
	}
	es := &harness.EngineStats{}
	o.Jobs = *jobs
	o.EngineStats = es
	o.SampleWindow = *sampleWin
	o.Attr = *attrF
	o.Probe = *bpredRep || *bpredCSV != ""
	o.PipeviewBench = *pview
	if !*noCache && *cacheDir != "" {
		c, err := engine.Open(*cacheDir)
		if err != nil {
			log.Printf("warning: run cache disabled: %v", err)
		} else {
			o.Cache = c
		}
	}
	if *progress || *listen != "" {
		o.Monitor = engine.NewMonitor()
		if *listen != "" {
			addr, closeSrv, err := o.Monitor.Serve(*listen)
			if err != nil {
				log.Fatalf("listen: %v", err)
			}
			defer closeSrv()
			log.Printf("monitor listening on http://%s (/progress, /metrics, /debug/sweep, /debug/bpred, /healthz, /debug/pprof)", addr)
		}
		if *progress {
			stop := o.Monitor.StartStatus(os.Stderr, 0)
			defer stop()
		}
	}
	if *sweepOut != "" || *sweepChr != "" {
		o.Recorder = engine.NewSweepRecorder()
	}

	sc := harness.NewSuiteCache(o)
	suite := func(name string) []*harness.BenchResult {
		rs, err := sc.Suite(name)
		if err != nil {
			log.Fatal(err)
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
	allSuites := func() []*harness.BenchResult {
		var rs []*harness.BenchResult
		for _, s := range workload.AllSuites() {
			rs = append(rs, suite(s)...)
		}
		return rs
	}
	if *bpredRep {
		fmt.Println("Predictor observatory (first REF input):")
		for _, r := range allSuites() {
			wr := r.Inputs[0].Runs[0]
			for _, cand := range r.Inputs[0].Runs {
				if cand.Width == 4 {
					wr = cand
				}
			}
			if wr.Base.Bpred == nil || wr.Exp.Bpred == nil {
				continue
			}
			fmt.Println()
			harness.WriteBpredStudy(os.Stdout, fmt.Sprintf("%s/base w%d", r.Config.Name, wr.Width), wr.Base.Bpred, 5)
			harness.WriteBpredStudy(os.Stdout, fmt.Sprintf("%s/exp w%d", r.Config.Name, wr.Width), wr.Exp.Bpred, 5)
		}
		did = true
	}
	if *bpredCSV != "" {
		f, err := os.Create(*bpredCSV)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := harness.WriteBpredCSV(f, allSuites()); err != nil {
			f.Close()
			log.Fatalf("%s: %v", *bpredCSV, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *bpredCSV)
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
		var all []*harness.BenchResult
		for _, s := range workload.AllSuites() {
			all = append(all, suite(s)...)
		}
		f, err := os.Create(*csv)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		harness.WriteCSV(f, all, o.Widths)
		log.Printf("wrote %s", *csv)
		did = true
	}
	if *jsonF != "" {
		var all []*harness.BenchResult
		for _, s := range workload.AllSuites() {
			all = append(all, suite(s)...)
		}
		rep := harness.JSONReport("spec", all)
		rep.Engine = es.Report()
		if o.Recorder != nil {
			rep.Sweep = o.Recorder.Report()
		}
		if err := rep.WriteFile(*jsonF); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonF)
		did = true
	}
	if *report != "" {
		byName := map[string][]*harness.BenchResult{}
		for _, s := range workload.AllSuites() {
			byName[s] = suite(s)
		}
		f, err := os.Create(*report)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		harness.WriteMarkdownReport(f, byName, o.Widths)
		log.Printf("wrote %s", *report)
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := harness.WriteSweepArtifacts(o.Recorder, *sweepOut, *sweepChr, o.Cache); err != nil {
		log.Fatal(err)
	}
	if *sweepOut != "" {
		log.Printf("wrote %s", *sweepOut)
	}
	if *sweepChr != "" {
		log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", *sweepChr)
	}
	log.Printf("engine: %s", es.Summary())
}
