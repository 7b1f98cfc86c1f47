// Package cli holds the engine and observability plumbing every
// experiment command shares. Register defines the shared flags once —
// -jobs, -cache-dir, -no-cache, -progress, -listen, -sweep-trace,
// -sweep-chrome, -attr, -bpred-report, -bpred-csv, -cpuprofile,
// -memprofile — so every command's -h prints the same lines for them;
// Start turns them into harness.Options and Finish writes what they asked
// for. The helpers are for command mains: they log through the standard
// logger and exit on error.
//
// A flag is shared when it means the same thing in every command. Two
// observer switches stay local on purpose. -sample-window only feeds the
// per-run samples sections of -json reports, and ablate, figures and
// vanguard write no run sections, so in those three it would be a flag
// with no output. -pipeview takes a benchmark name in spec, whose runs span
// whole suites, but is a plain switch in vgrun, which runs one program.
package cli

import (
	"bufio"
	"flag"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/trace"
)

// endpoints lists what the -listen monitor serves.
const endpoints = "/progress JSON, /metrics Prometheus text, /debug/sweep and /debug/bpred dashboards, /healthz, /debug/pprof"

// Flags are the parsed shared flags.
type Flags struct {
	Jobs        int
	CacheDir    string
	NoCache     bool
	Progress    bool
	Listen      string
	SweepTrace  string
	SweepChrome string
	Attr        bool
	BpredReport bool
	BpredCSV    string
	CPUProfile  string
	MemProfile  string
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Jobs, "jobs", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache-dir", engine.DefaultDir(), "on-disk run cache directory")
	fs.BoolVar(&f.NoCache, "no-cache", false, "disable the on-disk run cache")
	fs.BoolVar(&f.Progress, "progress", false, "render a live engine status line on stderr")
	fs.StringVar(&f.Listen, "listen", "", "serve live progress over HTTP on this address (e.g. :0): "+endpoints)
	fs.StringVar(&f.SweepTrace, "sweep-trace", "", "write the engine flight recording (one span per unit lifecycle phase) as a "+trace.SweepSchema+" JSON artifact to this file; -json reports gain a sweep section")
	fs.StringVar(&f.SweepChrome, "sweep-chrome", "", "write the engine flight recording as a Chrome trace_event timeline (one track per worker; open in chrome://tracing or ui.perfetto.dev) to this file")
	fs.BoolVar(&f.Attr, "attr", false, "charge every issue slot to a cause on every simulation: vgrun prints the CPI stack and offender tables, vanguard the baseline-vs-vanguard cycle stack and per-branch deltas; -json reports gain attribution sections and /metrics per-cause slot counters")
	fs.BoolVar(&f.BpredReport, "bpred-report", false, "probe the direction predictor on every simulation and print the table-level studies with per-branch predictability classes; -json reports gain bpredstudy sections")
	fs.StringVar(&f.BpredCSV, "bpred-csv", "", "probe the direction predictor and write the per-branch classifications as CSV to this file (implies -bpred-report)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (bypasses the run cache, so the profile shows the simulations)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// Session is one command invocation's running plumbing, ended by Finish.
type Session struct {
	f          *Flags
	rec        *engine.SweepRecorder
	cache      *engine.Cache
	cpu        *os.File
	stopStatus func()
	closeSrv   func() error
}

// Start applies the flags to o — Jobs, Attr, Probe, the session's
// Recorder (every engine run of the command books its units there), and
// the Cache and Monitor they ask for — and starts the status line, the
// monitor server and the CPU profile. -bpred-csv sets BpredReport, and
// -cpuprofile leaves o.Cache nil: a cache hit would profile nothing.
func (f *Flags) Start(o *harness.Options) *Session {
	if f.BpredCSV != "" {
		f.BpredReport = true
	}
	o.Jobs = f.Jobs
	o.Attr = f.Attr
	o.Probe = f.BpredReport
	o.Recorder = engine.NewSweepRecorder()
	switch {
	case f.NoCache || f.CacheDir == "":
	case f.CPUProfile != "":
		log.Printf("run cache bypassed under -cpuprofile")
	default:
		if c, err := engine.Open(f.CacheDir); err != nil {
			log.Printf("warning: run cache disabled: %v", err)
		} else {
			o.Cache = c
		}
	}
	s := &Session{f: f}
	if f.Progress || f.Listen != "" {
		o.Monitor = engine.NewMonitor(o.Recorder)
		if f.Listen != "" {
			addr, closeSrv, err := o.Monitor.Serve(f.Listen)
			if err != nil {
				log.Fatalf("listen: %v", err)
			}
			s.closeSrv = closeSrv
			log.Printf("monitor listening on http://%s (%s)", addr, endpoints)
		}
		if f.Progress {
			s.stopStatus = o.Monitor.StartStatus(os.Stderr, 0)
		}
	}
	if f.CPUProfile != "" {
		pf, err := os.Create(f.CPUProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		s.cpu = pf
	}
	s.rec, s.cache = o.Recorder, o.Cache
	return s
}

// Finish ends the session once the command's engine work is done: it
// stops the status line, the monitor server and the profiles (writing
// -memprofile), writes the -sweep-trace and -sweep-chrome artifacts (with
// either, also the copy beside the run cache), and logs the engine summary.
func (s *Session) Finish() {
	if s.stopStatus != nil {
		s.stopStatus()
	}
	if s.closeSrv != nil {
		s.closeSrv()
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if s.f.MemProfile != "" {
		runtime.GC() // settle the heap so the profile shows live data
		Write(s.f.MemProfile, func(w io.Writer) error { return pprof.WriteHeapProfile(w) })
	}
	if err := harness.WriteSweepArtifacts(s.rec, s.f.SweepTrace, s.f.SweepChrome, s.cache); err != nil {
		log.Fatal(err)
	}
	if s.f.SweepTrace != "" {
		log.Printf("wrote %s", s.f.SweepTrace)
	}
	if s.f.SweepChrome != "" {
		log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", s.f.SweepChrome)
	}
	e := s.rec.EngineReport()
	log.Printf("engine: %d units on %d workers in %.1fs (run cache: %d hits, %d misses)",
		e.Units, e.Jobs, e.WallMS/1000, e.CacheHits, e.CacheMisses)
}

// Telemetry stamps a -json report with the engine section of the
// session's recording and, under -sweep-trace or -sweep-chrome, the
// recording itself.
func (s *Session) Telemetry(rep *trace.Report) {
	rep.Engine = s.rec.EngineReport()
	if s.f.SweepTrace != "" || s.f.SweepChrome != "" {
		rep.Sweep = s.rec.Report()
	}
}

// WriteBpred renders the probed result set's predictor studies (the
// width-`width` run of each benchmark's first REF input, topN rows per
// table) on w under -bpred-report, and writes every run's per-branch
// classifications to the -bpred-csv file.
func (f *Flags) WriteBpred(w io.Writer, rs []*harness.BenchResult, width, topN int) {
	if f.BpredReport {
		harness.WriteBpredStudies(w, rs, width, topN)
	}
	if f.BpredCSV != "" {
		Write(f.BpredCSV, func(w io.Writer) error { _, err := harness.WriteBpredCSV(w, rs); return err })
	}
}

// WriteAttrCSV exports a differential attribution's stacked-CPI and
// per-branch delta tables as PREFIX.cpistack.csv and PREFIX.branches.csv.
func WriteAttrCSV(prefix string, d *harness.AttrDiff) {
	Write(prefix+".cpistack.csv", func(w io.Writer) error { _, err := harness.WriteCPIStackCSV(w, d); return err })
	Write(prefix+".branches.csv", func(w io.Writer) error { _, err := harness.WriteBranchDeltaCSV(w, d); return err })
}

// Write is WriteFile for command mains: it logs "wrote path" on success
// and exits on any error.
func Write(path string, fn func(io.Writer) error) {
	if err := WriteFile(path, fn); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	log.Printf("wrote %s", path)
}

// WriteFile creates path and fills it through fn over a buffered writer.
// It returns the first error among fn, the writes (the buffer keeps the
// first one, so writers that ignore their write errors are still
// caught), the flush and the close.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeBuffered(f, fn)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeBuffered(w io.Writer, fn func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	if err := fn(bw); err != nil {
		return err
	}
	return bw.Flush()
}
