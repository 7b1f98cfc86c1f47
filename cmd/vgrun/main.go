// Command vgrun assembles a vanguard assembly file and runs it — on the
// golden-model interpreter, on the Table 1 cycle-level machine, or both —
// optionally applying the Decomposed Branch Transformation first. Every
// binary is scheduled for the machine's width, so the plain run is the
// baseline -transform and -attr-diff compare against.
//
//	vgrun prog.s                      # schedule, interpret + simulate, print stats
//	vgrun -width 8 prog.s             # 8-wide machine
//	vgrun -transform prog.s           # profile, decompose, schedule, then simulate
//	vgrun -dump -transform prog.s     # print the transformed, scheduled assembly
//	vgrun -json out.json prog.s       # machine-readable telemetry report
//	vgrun -chrome-trace t.json prog.s # timeline for chrome://tracing / Perfetto
//	vgrun -attr-diff prog.s           # baseline-vs-vanguard cycle attribution
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
	"errors"
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vgrun: ")
	var (
		width     = flag.Int("width", 4, "issue width")
		transform = flag.Bool("transform", false, "apply the decomposed branch transformation (profile-guided)")
		dump      = flag.Bool("dump", false, "print the scheduled (and, with -transform, transformed) assembly and exit")
		maxInstrs = flag.Int64("max-instrs", 50_000_000, "functional instruction cap")
		doTrace   = flag.Bool("trace", false, "print issue/mispredict events from the timing run (historical line format)")
		traceAll  = flag.Bool("trace-all", false, "like -trace, but print every lifecycle event (fetch, commit, squash, DBB push/pop, cache misses, faults)")
		jsonOut   = flag.String("json", "", "write a machine-readable telemetry report (schema "+trace.Schema+") to this file")
		chromeOut = flag.String("chrome-trace", "", "write a Chrome trace_event timeline (open in chrome://tracing or ui.perfetto.dev) to this file")
		noHists   = flag.Bool("no-hists", false, "suppress the ASCII histograms in the text report")
		sampleWin = flag.Int64("sample-window", 0, fmt.Sprintf("record a counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
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
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() != f.DefValue })
	if err := checkFlags(given); err != nil {
		log.Fatal(err)
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

	bin, _, rep := build(p, *transform, *maxInstrs, *width)
	if rep != nil {
		fmt.Fprintf(os.Stderr, "converted %d branch(es), code size %+.1f%%\n",
			len(rep.Converted), rep.PISCS())
	}
	if *dump {
		fmt.Print(asm.Format(bin))
		sess.Finish()
		return
	}

	im := ir.MustLinearize(bin)
	gm := mem.New()
	gst, fstats, err := interp.Run(im, gm, interp.Options{MaxInstrs: *maxInstrs})
	if err != nil {
		log.Fatalf("interpret: %v", err)
	}
	fmt.Printf("functional: %d instructions, %d branches (%d taken), halted=%v\n",
		fstats.Instrs, fstats.Branches, fstats.Taken, gst.Halted)

	// The machine every run simulates, observers included. Pipeview
	// capture and the predictor study ride inside Stats, so pipeviewed and
	// probed runs stay cacheable: the renderings below all work from the
	// cached report.
	cfg := pipeline.DefaultConfig(*width)
	cfg.SampleWindow = *sampleWin
	cfg.Attr = o.Attr || *attrDiff
	cfg.Probe = o.Probe
	if *pviewOn || *konataOut != "" || *pvAround > 0 || *pvTo > 0 || *pvEvery > 0 {
		c := pipeview.DefaultConfig()
		c.AroundSquash = *pvAround
		c.From, c.To = *pvFrom, *pvTo
		c.EveryWindow = *pvEvery
		cfg.Pipeview = &c
	}

	if *attrDiff {
		runAttrDiff(p, im, gm, src, cfg, o, sess, *maxInstrs, *attrCSV)
		return
	}
	// Event tracing needs a live machine, so those runs bypass the cache
	// (profiled runs have none: -cpuprofile leaves o.Cache nil); cache
	// hits skip the memory cross-check (the run was verified when its
	// result was computed and stored). The key names the program and how
	// it was built, then the exact machine the run uses.
	sinks := eventSinks{text: *doTrace || *traceAll, all: *traceAll, chrome: *chromeOut}
	key := ""
	if !sinks.text && sinks.chrome == "" {
		key = engine.Key("vgrun/v7", string(src), *transform, *maxInstrs, cfg)
	}
	results, est := simulate(o, sess, simUnit("timing", key, im, cfg, gm, sinks))
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
				_, err := harness.WriteBpredRuns(w, harness.BpredRun{Benchmark: flag.Arg(0), Width: *width, Binary: "timing", Study: st.Bpred})
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
		sess.Telemetry(report)
		cli.Write(*jsonOut, report.Write)
	}
}

// attrDiffIgnores lists the flags that shape vgrun's one timing run,
// which -attr-diff replaces with the two binaries' runs.
var attrDiffIgnores = []string{
	"json", "bpred-report", "bpred-csv", "sample-window",
	"pipeview", "pipeview-around", "pipeview-from", "pipeview-to", "pipeview-every", "konata",
	"trace", "trace-all", "chrome-trace",
}

// checkFlags rejects a command line that gives a flag the run would
// silently ignore. given maps each flag set on the command line to
// whether its value differs from the default.
func checkFlags(given map[string]bool) error {
	if !given["attr-diff"] {
		if given["attr-csv"] {
			return errors.New("-attr-csv needs -attr-diff")
		}
		return nil
	}
	if given["transform"] {
		return errors.New("-attr-diff builds both binaries itself; drop -transform")
	}
	for _, name := range attrDiffIgnores {
		if given[name] {
			return fmt.Errorf("-attr-diff does not apply -%s; drop it", name)
		}
	}
	return nil
}

// build returns the binary vgrun simulates from the parsed program p,
// which it leaves untouched: a copy of p scheduled for width, after
// profiling it and applying the Decomposed Branch Transformation under
// transform (rep is then the transformation's report). The plain run, the
// -transform run and both binaries of -attr-diff all come from here, so
// any two of them differ only by the transformation.
func build(p *ir.Program, transform bool, maxInstrs int64, width int) (bin *ir.Program, prof *profile.Profile, rep *core.Report) {
	bin = p.Clone()
	if transform {
		var err error
		if prof, err = profile.CollectDefault(ir.MustLinearize(bin), mem.New(), maxInstrs); err != nil {
			log.Fatalf("profile: %v", err)
		}
		if rep, err = core.Transform(bin, prof, core.DefaultOptions()); err != nil {
			log.Fatalf("transform: %v", err)
		}
	}
	sched.Program(bin, sched.DefaultModel(width))
	return bin, prof, rep
}

// eventSinks are the lifecycle-event consumers a timing run attaches:
// text lines on stderr (all kinds, or the historical issue/mispredict
// format) and a Chrome trace_event file.
type eventSinks struct {
	text, all bool
	chrome    string
}

// simUnit returns the engine unit that simulates one binary's image on
// cfg: a machine over fresh memory with the sinks attached beside an
// always-on ring of the latest events (dumped if the run fails), the
// run, and the check of its final memory against the golden model's gm.
func simUnit(binary, key string, im *ir.Image, cfg pipeline.Config, gm *mem.Memory, sinks eventSinks) engine.Unit[*pipeline.Stats] {
	run := func(context.Context) (*pipeline.Stats, error) {
		mach := pipeline.New(im, mem.New(), cfg)
		ring := trace.NewRing(64)
		tee := []trace.Sink{ring}
		if sinks.text {
			tee = append(tee, &trace.Text{W: os.Stderr, All: sinks.all})
		}
		var chrome *trace.Chrome
		if sinks.chrome != "" {
			f, err := os.Create(sinks.chrome)
			if err != nil {
				return nil, err
			}
			chrome = trace.NewChrome(f)
			tee = append(tee, chrome)
		}
		mach.Sink = trace.Tee(tee...)

		st, simErr := mach.Run()
		// Close every sink the run fed (the machine tees in its waterfall
		// recorder); of them only the Chrome writer can fail.
		if err := mach.Sink.Close(); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		if chrome != nil {
			log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", sinks.chrome)
		}
		if simErr != nil {
			fmt.Fprintf(os.Stderr, "last %d pipeline events before the failure:\n", ring.Len())
			trace.WriteEvents(os.Stderr, ring.Events())
			return nil, simErr
		}
		if !mach.Memory().Equal(gm) {
			return nil, fmt.Errorf("%s simulation diverged from the golden model", binary)
		}
		return st, nil
	}
	return engine.Unit[*pipeline.Stats]{Label: binary + "/" + flag.Arg(0), Key: key, Run: run}
}

// simulate runs the units as one engine job set, feeds their results to
// the monitor and ends the session. It exits on a failed run.
func simulate(o harness.Options, sess *cli.Session, units ...engine.Unit[*pipeline.Stats]) ([]*pipeline.Stats, engine.Stats) {
	results, est, err := harness.RunUnits(o, units)
	harness.ObserveResults(o.Monitor, results...)
	sess.Finish()
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	return results, est
}

// runAttrDiff is the -attr-diff path: simulate the plain run's image base
// and the vanguard binary built from the parsed (untransformed) program p
// on cfg (attribution on) as engine units (cached, monitored), and render
// the differential — which causes shrank, and which branches paid off.
func runAttrDiff(p *ir.Program, base *ir.Image, gm *mem.Memory, src []byte, cfg pipeline.Config,
	o harness.Options, sess *cli.Session, maxInstrs int64, csvPrefix string) {
	exp, prof, rep := build(p, true, maxInstrs, cfg.Width)
	unit := func(binary string, im *ir.Image) engine.Unit[*pipeline.Stats] {
		key := engine.Key("vgrun-attrdiff/v4", string(src), maxInstrs, binary, cfg)
		return simUnit(binary, key, im, cfg, gm, eventSinks{})
	}
	results, _ := simulate(o, sess, unit("base", base), unit("exp", ir.MustLinearize(exp)))
	d := &harness.AttrDiff{
		Benchmark: flag.Arg(0), Width: cfg.Width,
		Base: results[0].Attr, Exp: results[1].Attr,
		Profile: prof, Transform: rep,
	}
	fmt.Printf("converted %d branch(es), code size %+.1f%%\n\n", len(rep.Converted), rep.PISCS())
	harness.WriteAttrDiff(os.Stdout, d, 10)
	if csvPrefix != "" {
		cli.WriteAttrCSV(csvPrefix, d)
	}
}
