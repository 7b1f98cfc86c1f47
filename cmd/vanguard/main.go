// Command vanguard runs one benchmark end to end: generate, profile on
// TRAIN, build the baseline and decomposed-branch binaries, simulate both
// on the REF inputs, and print the resulting metrics.
//
// Usage:
//
//	vanguard -bench h264ref [-width 4] [-predictor tage-27KB] [-iters 4000]
//	vanguard -bench mcf -dump          # disassemble both binaries
//	vanguard -list                     # enumerate the SPEC stand-ins
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"vanguard/internal/bpred"
	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/metrics"
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vanguard: ")
	var (
		bench     = flag.String("bench", "h264ref", "benchmark name (any SPEC 2000/2006 stand-in)")
		width     = flag.Int("width", 4, "issue width (2, 4 or 8)")
		predictor = flag.String("predictor", "", "direction predictor, a Section 5.3 ladder rung: "+strings.Join(rungNames(), "|")+" (empty: the Table 1 default)")
		iters     = flag.Int64("iters", 0, "override REF iteration count")
		dump      = flag.Bool("dump", false, "disassemble the baseline and experimental binaries")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
	)
	shared := cli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, s := range workload.AllSuites() {
			fmt.Printf("%s:", s)
			for _, c := range workload.Suite(s) {
				fmt.Printf(" %s", c.Name)
			}
			fmt.Println()
		}
		return
	}

	c, ok := workload.ByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q (try -list)", *bench)
	}
	o := harness.DefaultOptions()
	o.Widths = []int{*width}
	rung, err := ladderRung(*predictor)
	if err != nil {
		log.Fatal(err)
	}
	if rung != nil {
		o.NewPredictor, o.PredictorName = rung.New, rung.Name
	}
	if *iters > 0 {
		for i := range o.RefInputs {
			o.RefInputs[i].Iters = *iters
		}
	}

	if *dump {
		base, exp, _, rep, err := harness.BuildBinaries(c, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("=== baseline ===")
		fmt.Print(base)
		fmt.Println("=== experimental (decomposed branches) ===")
		fmt.Print(exp)
		fmt.Printf("converted branches: %d, static growth: %.1f%%\n",
			len(rep.Converted), rep.PISCS())
		return
	}

	sess := shared.Start(&o)

	r, err := harness.RunBenchmark(c, o)
	if err != nil {
		log.Fatal(err)
	}
	row := r.Table2()
	fmt.Printf("benchmark   %s (%s)\n", c.Name, c.Suite)
	fmt.Printf("speedup     %.2f%% (all refs, %d-wide); best ref %.2f%%\n",
		r.SpeedupAllRefsPct(*width), *width, r.SpeedupBestRefPct(*width))
	fmt.Printf("converted   %d of %d forward branches (PBC %.1f%%)\n",
		len(r.Report.Converted), r.Report.ForwardStatic, row.PBC)
	fmt.Printf("PDIH %.1f%%  PHI %.1f%%  ASPCB %.1f  MPPKI %.1f  PISCS %.1f%%\n",
		row.PDIH, row.PHI, row.ASPCB, row.MPPKI, row.PISCS)
	for _, in := range r.Inputs {
		for _, wr := range in.Runs {
			fmt.Printf("input seed %d: base %d cycles (IPC %.3f) -> exp %d cycles (IPC %.3f), %+.2f%%\n",
				in.Input.Seed, wr.Base.Cycles, wr.Base.IPC(), wr.Exp.Cycles, wr.Exp.IPC(),
				metrics.SpeedupPct(wr.Base.Cycles, wr.Exp.Cycles))
		}
	}
	if o.Attr {
		d, err := r.AttrDiff(*width)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		harness.WriteAttrDiff(os.Stdout, d, 10)
	}
	if o.Probe {
		fmt.Println()
		shared.WriteBpred(os.Stdout, []*harness.BenchResult{r}, *width, 10)
	}
	sess.Finish()
}

// ladderRung resolves -predictor to the Section 5.3 ladder rung of that
// name. The empty name resolves to nil: the Table 1 default, which
// leaves Options.NewPredictor unset so the runs share spec's cache keys.
func ladderRung(name string) (*bpred.LadderSpec, error) {
	if name == "" {
		return nil, nil
	}
	for _, s := range bpred.LadderSpecs() {
		if s.Name == name {
			return &s, nil
		}
	}
	return nil, fmt.Errorf("unknown predictor %q (have %s)", name, strings.Join(rungNames(), ", "))
}

// rungNames lists the ladder rungs -predictor accepts, in ladder order.
func rungNames() []string {
	var names []string
	for _, s := range bpred.LadderSpecs() {
		names = append(names, s.Name)
	}
	return names
}
