package main

import (
	"embed"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics a timed run reports, in
// BENCHMARK.json order. fail_ratio is reported beside them in the result
// file; the run's failed and attempted counts carry it on the last line.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"mallocs_k", "k"},
}

// rawMetrics are reported beside endToEnd in the result file: the
// failure ratio, the times before rescaling, and the calibration times.
var rawMetrics = []metricDef{
	{"fail_ratio", "ratio"},
	{"raw_wall_s", "s"},
	{"raw_cpu_s", "s"},
	{"raw_setup_s", "s"},
	{"calib_s", "s"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

//go:embed expected/*.sha256
var expectedFS embed.FS

// expectedDigest is the committed seed-0 result digest of a workload.
func expectedDigest(name string) string {
	b, err := expectedFS.ReadFile("expected/" + name + ".sha256")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// prepared is a workload set up for its repetitions.
type prepared struct {
	o      harness.Options
	inputs inputStats
	dir    string // where repetitions create their run caches
	// cacheDir is the run cache a warm workload filled during setup.
	cacheDir string
}

// setup prepares a workload for a seed: it generates and checks the
// experiment's inputs and, for a warm workload, fills a run cache with
// one full experiment.
func (w *benchWorkload) setup(seed int64, dir string) (*prepared, error) {
	p := &prepared{o: w.options(seed), dir: dir}
	var err error
	if p.inputs, err = w.generateInputs(p.o); err != nil {
		return nil, err
	}
	if w.warm {
		if p.o.Cache, p.cacheDir, err = freshCache(dir); err != nil {
			return nil, err
		}
		if _, err := w.experiment(p.o); err != nil {
			p.close()
			return nil, fmt.Errorf("filling the run cache: %w", err)
		}
	}
	return p, nil
}

func (p *prepared) close() {
	if p.cacheDir != "" {
		os.RemoveAll(p.cacheDir)
	}
}

// freshCache opens an empty run cache in a new directory under dir.
func freshCache(dir string) (*engine.Cache, string, error) {
	d, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, "", err
	}
	c, err := engine.Open(d)
	if err != nil {
		os.RemoveAll(d)
		return nil, "", err
	}
	return c, d, nil
}

// sample is one measured repetition.
type sample struct {
	wall, cpu           time.Duration
	allocBytes, mallocs uint64
	digest              string
}

// rep runs the experiment once and measures it. A cold workload's
// experiment gets a fresh run cache, created and removed outside the
// measured interval, and every repetition starts after a full GC so that
// none inherits the previous one's garbage.
func (w *benchWorkload) rep(p *prepared) (sample, error) {
	o := p.o
	if !w.warm {
		c, d, err := freshCache(p.dir)
		if err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(d)
		o.Cache = c
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	digest, err := w.experiment(o)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{
		wall: wall, cpu: c1 - c0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		digest: digest,
	}, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRun sets the workload up setupReps times, runs one untimed
// warm-up repetition, then times repetitions back to back for about
// seconds: a repetition starts only while the run is expected to end
// within the budget, and there is always at least one. The calibration
// kernel runs once before the setups, before every repetition and after
// the last; times are reported rescaled by it (see calib.go).
func timedRun(w *benchWorkload, seed int64, seconds float64, dir string) (*Result, error) {
	var calib []float64
	calibrateOnce := func() error {
		d, err := calibrate()
		calib = append(calib, d.Seconds())
		return err
	}

	if err := calibrateOnce(); err != nil {
		return nil, err
	}
	var setups []float64
	var p *prepared
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		if p, err = w.setup(seed, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()

	var digests []string
	var timed []sample
	run := func(measured bool) error {
		for i := 0; i < 2; i++ {
			if err := calibrateOnce(); err != nil {
				return err
			}
		}
		s, err := w.rep(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			digests = append(digests, "")
			return nil
		}
		digests = append(digests, s.digest)
		if measured {
			timed = append(timed, s)
		}
		return nil
	}
	if err := run(false); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for n := 0; n == 0 || time.Since(start)*time.Duration(n+1)/time.Duration(n) <= budget; n++ {
		if err := run(true); err != nil {
			return nil, err
		}
	}
	if err := calibrateOnce(); err != nil {
		return nil, err
	}

	res := newResult(w, seed)
	res.Inputs = p.inputs
	res.Attempted = len(digests)
	res.Failed = countFailures(digests, res.Expected, seed)
	res.Correct = res.Failed == 0 && len(timed) > 0
	for _, d := range digests {
		if d != "" {
			res.Digest = d
			break
		}
	}
	var wall, cpu, alloc, mallocs []float64
	for _, s := range timed {
		wall = append(wall, s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		alloc = append(alloc, float64(s.allocBytes)/1e6)
		mallocs = append(mallocs, float64(s.mallocs)/1e3)
	}
	k := calibNominal / median(calib)
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	res.Metrics = map[string]Summary{
		"wall_s":      summarize("s", scaled(wall)),
		"cpu_s":       summarize("s", scaled(cpu)),
		"setup_s":     summarize("s", scaled(setups)),
		"alloc_mb":    summarize("MB", alloc),
		"mallocs_k":   summarize("k", mallocs),
		"fail_ratio":  summarize("ratio", []float64{float64(res.Failed) / float64(res.Attempted)}),
		"raw_wall_s":  summarize("s", wall),
		"raw_cpu_s":   summarize("s", cpu),
		"raw_setup_s": summarize("s", setups),
		"calib_s":     summarize("s", calib),
	}
	return res, nil
}
