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

	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	var (
		sweep = flag.String("sweep", "all", "gap | hoist | dbb | slice | all")
		fast  = flag.Bool("fast", false, "reduced inputs")
		jsonF = flag.String("json", "", "also write the sweeps as a structured telemetry report to this file")
	)
	shared := cli.Register(flag.CommandLine)
	flag.Parse()

	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
		o.RefInputs = o.RefInputs[:1]
	}
	sess := shared.Start(&o)
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
		fmt.Println()
		shared.WriteBpred(os.Stdout, rs, 4, 5)
	}
	if *jsonF != "" {
		rep := harness.AblationJSON("ablate", sweeps, order)
		sess.Telemetry(rep)
		cli.Write(*jsonF, rep.Write)
	}
	sess.Finish()
}
