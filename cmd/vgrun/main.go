// Command vgrun assembles a vanguard assembly file and runs it — on the
// golden-model interpreter, on the Table 1 cycle-level machine, or both —
// optionally applying the Decomposed Branch Transformation first.
//
//	vgrun prog.s                      # interpret + simulate, print stats
//	vgrun -width 8 prog.s             # 8-wide machine
//	vgrun -transform prog.s           # profile, decompose, then simulate
//	vgrun -dump -transform prog.s     # print the transformed assembly
//	vgrun -json out.json prog.s       # machine-readable telemetry report
//	vgrun -chrome-trace t.json prog.s # timeline for chrome://tracing / Perfetto
//
// The timing run executes as an experiment-engine unit, so repeated
// invocations on an unchanged program are served from the content-keyed
// run cache (-cache-dir, -no-cache); event tracing flags force a live
// run. If the timing run halts on a deferred architectural fault, vgrun
// exits non-zero after dumping the last pipeline lifecycle events leading
// up to the fault (an always-on bounded ring buffer records them).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vanguard/internal/asm"
	"vanguard/internal/cli"
	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/sample"
	"vanguard/internal/sched"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vgrun: ")
	var (
		width     = flag.Int("width", 4, "issue width")
		transform = flag.Bool("transform", false, "apply the decomposed branch transformation (profile-guided)")
		dump      = flag.Bool("dump", false, "print the (possibly transformed) assembly and exit")
		maxInstrs = flag.Int64("max-instrs", 50_000_000, "functional instruction cap")
		doTrace   = flag.Bool("trace", false, "print issue/mispredict events from the timing run (historical line format)")
		traceAll  = flag.Bool("trace-all", false, "like -trace, but print every lifecycle event (fetch, commit, squash, DBB push/pop, cache misses, faults)")
		jsonOut   = flag.String("json", "", "write a machine-readable telemetry report (schema "+trace.Schema+") to this file")
		chromeOut = flag.String("chrome-trace", "", "write a Chrome trace_event timeline (open in chrome://tracing or ui.perfetto.dev) to this file")
		noHists   = flag.Bool("no-hists", false, "suppress the ASCII histograms in the text report")
		sampleWin = flag.Int64("sample-window", 0, fmt.Sprintf("record a counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		attrOn    = flag.Bool("attr", false, "charge every issue slot to a cause: print the CPI stack and offender tables, add an attribution section to -json reports")
		pviewOn   = flag.Bool("pipeview", false, "record per-instruction pipeline lifetimes: print an ASCII waterfall and squash genealogy, add a pipeview section to -json reports")
		konataOut = flag.String("konata", "", "write the captured lifetimes in Konata/O3PipeView format (open in the Konata viewer) to this file; implies -pipeview")
		pvAround  = flag.Int("pipeview-around", 0, "capture around the Nth squash/misprediction instead of the run's tail (implies -pipeview)")
		pvFrom    = flag.Int64("pipeview-from", 0, "with -pipeview-to: capture the explicit cycle range [from, to) (implies -pipeview)")
		pvTo      = flag.Int64("pipeview-to", 0, "see -pipeview-from")
		pvEvery   = flag.Int64("pipeview-every", 0, "capture one burst of records at the start of every N-cycle window (implies -pipeview)")
		attrDiff  = flag.Bool("attr-diff", false, "profile, decompose, and simulate the baseline and vanguard binaries with attribution on; print the CPI-stack delta and per-branch recovery table, then exit")
		attrCSV   = flag.String("attr-csv", "", "with -attr-diff: also write PREFIX.cpistack.csv and PREFIX.branches.csv")
	)
	shared := cli.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: vgrun [flags] prog.s")
	}
	if *attrDiff && *transform {
		log.Fatal("-attr-diff builds both binaries itself; drop -transform")
	}
	var o harness.Options
	sess := shared.Start(&o)
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	p, err := asm.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	var rep *core.Report
	if *transform {
		prof, err := profile.CollectDefault(ir.MustLinearize(p), mem.New(), *maxInstrs)
		if err != nil {
			log.Fatalf("profile: %v", err)
		}
		rep, err = core.Transform(p, prof, core.DefaultOptions())
		if err != nil {
			log.Fatalf("transform: %v", err)
		}
		fmt.Fprintf(os.Stderr, "converted %d branch(es), code size %+.1f%%\n",
			len(rep.Converted), rep.PISCS())
		sched.Program(p, sched.DefaultModel(*width))
	}
	if *dump {
		fmt.Print(asm.Format(p))
		sess.Finish()
		return
	}

	im := ir.MustLinearize(p)
	gm := mem.New()
	gst, fstats, err := interp.Run(im, gm, interp.Options{MaxInstrs: *maxInstrs})
	if err != nil {
		log.Fatalf("interpret: %v", err)
	}
	fmt.Printf("functional: %d instructions, %d branches (%d taken), halted=%v\n",
		fstats.Instrs, fstats.Branches, fstats.Taken, gst.Halted)

	if *attrDiff {
		runAttrDiff(p, im, gm, src, o, sess, *width, *maxInstrs, *attrCSV)
		return
	}
	// Event tracing needs a live machine, so those runs bypass the cache
	// (profiled runs have none: -cpuprofile leaves o.Cache nil); cache
	// hits skip the memory cross-check (the run was verified when its
	// result was computed and stored).
	tracing := *doTrace || *traceAll || *chromeOut != ""

	// Pipeview capture rides inside Stats, so pipeviewed runs stay
	// cacheable: the waterfall, genealogy and Konata renderings below all
	// work from the cached report.
	var pvCfg *pipeview.Config
	if *pviewOn || *konataOut != "" || *pvAround > 0 || *pvTo > 0 || *pvEvery > 0 {
		c := pipeview.DefaultConfig()
		c.AroundSquash = *pvAround
		c.From, c.To = *pvFrom, *pvTo
		c.EveryWindow = *pvEvery
		pvCfg = &c
	}
	// The predictor observatory rides inside Stats like pipeview, so
	// probed runs (o.Probe) stay cacheable too. The key names the program
	// and how it was built, then the exact machine the run uses.
	cfg := pipeline.DefaultConfig(*width)
	cfg.SampleWindow = *sampleWin
	cfg.Attr = *attrOn
	cfg.Pipeview = pvCfg
	cfg.Probe = o.Probe
	key := ""
	if !tracing {
		key = engine.Key("vgrun/v6", string(src), *transform, *maxInstrs, cfg)
	}

	runTiming := func(context.Context) (*pipeline.Stats, error) {
		mach := pipeline.New(im, mem.New(), cfg)

		// An always-on bounded ring keeps the most recent lifecycle events
		// so a failing run can explain itself post mortem.
		ring := trace.NewRing(64)
		sinks := []trace.Sink{ring}
		if *doTrace || *traceAll {
			sinks = append(sinks, &trace.Text{W: os.Stderr, All: *traceAll})
		}
		var chrome *trace.Chrome
		if *chromeOut != "" {
			f, err := os.Create(*chromeOut)
			if err != nil {
				return nil, err
			}
			chrome = trace.NewChrome(f)
			sinks = append(sinks, chrome)
		}
		mach.Sink = trace.Tee(sinks...)

		st, simErr := mach.Run()
		if chrome != nil {
			if err := chrome.Close(); err != nil {
				return nil, fmt.Errorf("chrome trace: %w", err)
			}
			log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", *chromeOut)
		}
		if simErr != nil {
			fmt.Fprintf(os.Stderr, "last %d pipeline events before the failure:\n", ring.Len())
			trace.WriteEvents(os.Stderr, ring.Events())
			return nil, simErr
		}
		if !mach.Memory().Equal(gm) {
			return nil, fmt.Errorf("timing simulation diverged from the golden model")
		}
		return st, nil
	}

	results, est, err := engine.Run(context.Background(),
		engine.Config{Jobs: o.Jobs, Cache: o.Cache, Monitor: o.Monitor, Recorder: o.Recorder},
		[]engine.Unit[*pipeline.Stats]{{Label: "timing/" + flag.Arg(0), Key: key, Run: runTiming}})
	o.EngineStats.Add(est)
	harness.ObserveResults(o.Monitor, results...)
	sweep := sess.Finish()
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	st := results[0]
	if est.Units[0].CacheHit {
		fmt.Fprintf(os.Stderr, "timing run served from the run cache (%s)\n", o.Cache.Dir())
	}
	fmt.Printf("timing:     %d cycles, IPC %.3f, %d issued (%d wrong-path), MPKI %.2f\n",
		st.Cycles, st.IPC(), st.Issued, st.WrongPathIssued, st.MPKI())
	if st.Predicts > 0 {
		fmt.Printf("decomposed: %d predicts, %d resolves, %d repairs, DBB high-water %d\n",
			st.Predicts, st.Resolves, st.ResMispredicts, st.MaxDBBOccupancy)
	}
	if !*noHists {
		fmt.Println()
		textplot.Hist(os.Stdout, "fetch-to-issue latency (cycles)", &st.FetchToIssue, 40)
		textplot.Hist(os.Stdout, "misprediction repair penalty (cycles)", &st.RepairPenalty, 40)
		if st.Predicts > 0 {
			textplot.Hist(os.Stdout, "DBB occupancy (outstanding predicts)", &st.DBBOccupancy, 40)
			textplot.Hist(os.Stdout, "resolve stall run length (cycles)", &st.StallRunResolve, 40)
		}
		textplot.Hist(os.Stdout, "branch stall run length (cycles)", &st.StallRunBranch, 40)
		textplot.Hist(os.Stdout, "empty-fetch stall run length (cycles)", &st.StallRunEmpty, 40)
	}
	if sr := st.Samples; sr != nil && len(sr.Windows) > 0 {
		fmt.Printf("\ntime series (%d windows of %d cycles", len(sr.Windows), sr.WindowCycles)
		if sr.Dropped > 0 {
			fmt.Printf(", %d oldest dropped", sr.Dropped)
		}
		fmt.Println("):")
		textplot.Spark(os.Stdout, "  ipc          ", sr.Values(func(w *sample.Window) float64 { return w.IPC() }), 60)
		textplot.Spark(os.Stdout, "  mispredicts  ", sr.Values(func(w *sample.Window) float64 { return float64(w.Mispredicts()) }), 60)
		if st.Predicts > 0 {
			textplot.Spark(os.Stdout, "  resolves     ", sr.Values(func(w *sample.Window) float64 { return float64(w.Resolves) }), 60)
			textplot.Spark(os.Stdout, "  dbb high-water", sr.Values(func(w *sample.Window) float64 { return float64(w.DBBHighWater) }), 60)
		}
		textplot.Spark(os.Stdout, "  l1d misses   ", sr.Values(func(w *sample.Window) float64 { return float64(w.L1DMisses) }), 60)
		textplot.Spark(os.Stdout, "  stall cycles ", sr.Values(func(w *sample.Window) float64 {
			return float64(w.StallEmpty + w.StallOperand + w.StallBranch + w.StallResolve + w.StallFU)
		}), 60)
	}

	if st.Attr != nil {
		fmt.Println()
		harness.WriteAttrReport(os.Stdout, "cycle attribution (cycles by cause)", st.Attr, 10)
	}

	if st.Bpred != nil {
		if err := st.Bpred.CheckAgainst(st.CondBranches+st.Resolves, st.BrMispredicts+st.ResMispredicts); err != nil {
			log.Fatalf("predictor study conservation: %v", err)
		}
		fmt.Println()
		harness.WriteBpredStudy(os.Stdout, "predictor study", st.Bpred, 10)
		if shared.BpredCSV != "" {
			cli.Write(shared.BpredCSV, func(w io.Writer) error {
				_, err := harness.WriteBpredStudyCSV(w, flag.Arg(0), workload.Input{}, *width, "timing", st.Bpred)
				return err
			})
		}
	}

	if pv := st.Pipeview; pv != nil {
		fmt.Println()
		title := fmt.Sprintf("pipeline waterfall (%s trigger)", pv.Trigger)
		textplot.Waterfall(os.Stdout, title, pv, 64)
		fmt.Println()
		pipeview.WriteGenealogy(os.Stdout, pv, st.Attr)
		if *konataOut != "" {
			if err := pipeview.WriteKonataFile(*konataOut, pv); err != nil {
				log.Fatalf("konata: %v", err)
			}
			log.Printf("wrote %s (open in the Konata pipeline viewer)", *konataOut)
		}
	}

	if *jsonOut != "" {
		report := trace.NewReport("vgrun")
		bench := &trace.BenchReport{Name: flag.Arg(0)}
		if rep != nil {
			bench.Transform = rep.Telemetry()
		}
		bench.Runs = append(bench.Runs, st.RunReport("timing", *width))
		report.Benchmarks = append(report.Benchmarks, bench)
		report.Engine = &trace.EngineReport{
			Jobs:        est.Jobs,
			Units:       len(est.Units),
			CacheHits:   est.CacheHits,
			CacheMisses: est.CacheMisses,
			WallMS:      est.Wall.Seconds() * 1000,
		}
		report.Sweep = sweep
		cli.Write(*jsonOut, report.Write)
	}
}

// runAttrDiff is the -attr-diff path: build the vanguard binary from the
// parsed (untransformed) program, simulate both binaries with cycle
// attribution on as engine units (cached, monitored), and render the
// differential — which causes shrank, and which branches paid off.
func runAttrDiff(p *ir.Program, baseIm *ir.Image, gm *mem.Memory, src []byte,
	o harness.Options, sess *cli.Session, width int, maxInstrs int64, csvPrefix string) {
	prof, err := profile.CollectDefault(baseIm, mem.New(), maxInstrs)
	if err != nil {
		log.Fatalf("profile: %v", err)
	}
	expProg := p.Clone()
	rep, err := core.Transform(expProg, prof, core.DefaultOptions())
	if err != nil {
		log.Fatalf("transform: %v", err)
	}
	sched.Program(expProg, sched.DefaultModel(width))
	expIm := ir.MustLinearize(expProg)

	cfg := pipeline.DefaultConfig(width)
	cfg.Attr = true
	sim := func(im *ir.Image, binary string) engine.Unit[*pipeline.Stats] {
		return engine.Unit[*pipeline.Stats]{
			Label: binary + "/" + flag.Arg(0),
			Key:   engine.Key("vgrun-attrdiff/v3", string(src), maxInstrs, binary, cfg),
			Run: func(context.Context) (*pipeline.Stats, error) {
				mach := pipeline.New(im, mem.New(), cfg)
				st, err := mach.Run()
				if err != nil {
					return nil, err
				}
				if !mach.Memory().Equal(gm) {
					return nil, fmt.Errorf("%s binary diverged from the golden model", binary)
				}
				return st, nil
			},
		}
	}
	results, est, err := engine.Run(context.Background(),
		engine.Config{Jobs: o.Jobs, Cache: o.Cache, Monitor: o.Monitor, Recorder: o.Recorder},
		[]engine.Unit[*pipeline.Stats]{sim(baseIm, "base"), sim(expIm, "exp")})
	o.EngineStats.Add(est)
	harness.ObserveResults(o.Monitor, results...)
	sess.Finish()
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	d := &harness.AttrDiff{
		Benchmark: flag.Arg(0), Width: width,
		Base: results[0].Attr, Exp: results[1].Attr,
		Profile: prof, Transform: rep,
	}
	fmt.Printf("converted %d branch(es), code size %+.1f%%\n\n", len(rep.Converted), rep.PISCS())
	harness.WriteAttrDiff(os.Stdout, d, 10)
	if csvPrefix != "" {
		cli.WriteAttrCSV(csvPrefix, d)
	}
}
