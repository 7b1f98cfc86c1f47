// Command ablate runs the design-choice ablations DESIGN.md calls out:
// the 5% selection threshold, the hoisting depth, the 16-entry DBB, and
// the condition-slice push-down. Every sweep's full (point x benchmark)
// matrix executes on the experiment engine's worker pool.
//
//	ablate -sweep gap|hoist|dbb|slice|all [-fast] [-jobs N] [-json out.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	var (
		sweep    = flag.String("sweep", "all", "gap | hoist | dbb | slice | all")
		fast     = flag.Bool("fast", false, "reduced inputs")
		attrF    = flag.Bool("attr", false, "attribute every issue slot to a cause on every simulation (feeds the monitor's /metrics per-cause counters)")
		bpredRep = flag.Bool("bpred-report", false, "probe the predictor on every simulation and print the ablation benchmarks' table-level studies")
		bpredCSV = flag.String("bpred-csv", "", "probe the predictor on every simulation and write the ablation benchmarks' per-branch classifications as CSV to this file")
		jsonF    = flag.String("json", "", "also write the sweeps as a structured telemetry report to this file")
		jobs     = flag.Int("jobs", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", engine.DefaultDir(), "on-disk run cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the on-disk run cache")
		progress = flag.Bool("progress", false, "render a live engine status line on stderr")
		listen   = flag.String("listen", "", "serve live progress over HTTP on this address (e.g. :0): /progress JSON, /metrics Prometheus text, /debug/sweep dashboard, /healthz, /debug/pprof")
		sweepOut = flag.String("sweep-trace", "", "record the engine flight recording (one span per unit lifecycle phase) and write it as a "+trace.SweepSchema+" JSON artifact to this file; -json reports gain a sweep section (schema "+trace.SchemaV5+")")
		sweepChr = flag.String("sweep-chrome", "", "record the engine flight recording and write it as a Chrome trace_event timeline (one track per worker) to this file")
	)
	flag.Parse()

	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
		o.RefInputs = o.RefInputs[:1]
	}
	es := &harness.EngineStats{}
	o.Jobs = *jobs
	o.EngineStats = es
	o.Attr = *attrF
	o.Probe = *bpredRep || *bpredCSV != ""
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
	names := harness.AblationBenchmarks()

	titles := map[string]string{
		"gap":   "Selection threshold sweep (paper: predictability-bias >= 5% is best)",
		"hoist": "Hoist depth sweep",
		"dbb":   "DBB size sweep (paper: 16 entries more than sufficient)",
		"slice": "Condition-slice push-down ablation",
	}
	sweeps := map[string][]harness.AblationPoint{}
	var order []string

	run := func(kind string) {
		var pts []harness.AblationPoint
		var err error
		switch kind {
		case "gap":
			pts, err = harness.SweepMinGap(names, o, []float64{0, 0.02, 0.05, 0.10, 0.20})
		case "hoist":
			pts, err = harness.SweepMaxHoist(names, o, []int{0, 2, 4, 8, 12, 16})
		case "dbb":
			pts, err = harness.SweepDBBSize(names, o, []int{2, 4, 8, 16, 32})
		case "slice":
			pts, err = harness.SlicePushdownAblation(names, o)
		default:
			log.Fatalf("unknown sweep %q", kind)
		}
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteAblation(os.Stdout, titles[kind], pts)
		sweeps[titles[kind]] = pts
		order = append(order, titles[kind])
	}
	if *sweep == "all" {
		for _, k := range []string{"gap", "hoist", "dbb", "slice"} {
			run(k)
		}
	} else {
		run(*sweep)
	}
	if o.Probe {
		// The sweeps above reduce to speedup points; the observatory needs
		// the full Stats, so probe the ablation benchmark set directly (one
		// engine job set — the run cache makes repeats cheap).
		var cs []workload.Config
		for _, n := range names {
			c, ok := workload.ByName(n)
			if !ok {
				log.Fatalf("unknown ablation benchmark %q", n)
			}
			cs = append(cs, c)
		}
		rs, err := harness.RunBenchmarks(cs, o)
		if err != nil {
			log.Fatal(err)
		}
		if *bpredRep {
			fmt.Println("\nPredictor observatory (ablation benchmarks, first REF input):")
			for _, r := range rs {
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
		}
		if *bpredCSV != "" {
			f, err := os.Create(*bpredCSV)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := harness.WriteBpredCSV(f, rs); err != nil {
				f.Close()
				log.Fatalf("%s: %v", *bpredCSV, err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", *bpredCSV)
		}
	}
	if *jsonF != "" {
		rep := harness.AblationJSON("ablate", sweeps, order)
		rep.Engine = es.Report()
		if o.Recorder != nil {
			rep.Sweep = o.Recorder.Report()
		}
		if err := rep.WriteFile(*jsonF); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonF)
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
