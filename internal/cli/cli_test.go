package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/harness"
	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

// sharedNames lists every flag Register defines.
var sharedNames = []string{"jobs", "cache-dir", "no-cache", "progress", "listen", "sweep-trace",
	"sweep-chrome", "bpred-report", "bpred-csv", "cpuprofile", "memprofile"}

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterDefinesSharedSet(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(sharedNames) {
		t.Errorf("Register defines %d flags, want %d", n, len(sharedNames))
	}
	for _, name := range sharedNames {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not registered", name)
		}
	}
}

// TestCPUProfileBypassesCache pins that a profiled invocation never opens
// the run cache (a cache hit would profile nothing), while the same flags
// without -cpuprofile do, and that Finish leaves a profile behind.
func TestCPUProfileBypassesCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	var plain harness.Options
	parse(t, "-cache-dir", cacheDir).Start(&plain).Finish()
	if plain.Cache == nil {
		t.Fatal("run cache not opened without -cpuprofile")
	}

	prof := filepath.Join(dir, "cpu.prof")
	var o harness.Options
	s := parse(t, "-cache-dir", cacheDir, "-cpuprofile", prof).Start(&o)
	if o.Cache != nil {
		t.Error("-cpuprofile left the run cache open")
	}
	s.Finish()
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("no CPU profile written: %v", err)
	}
}

// probedResult is a one-benchmark result set whose width-4 runs carry a
// predictor study.
func probedResult() []*harness.BenchResult {
	study := &bpred.StudyReport{
		Predictor: "tage", Resolves: 3, Updates: 3, Mispredicts: 1,
		Branches: []bpred.BranchDigest{{ID: 7, Execs: 3, Taken: 2, Mispredicts: 1, Class: bpred.ClassRegime}},
	}
	return []*harness.BenchResult{{
		Config: workload.Config{Name: "mcf"},
		Inputs: []harness.InputResult{{
			Input: workload.Input{Seed: 1, Iters: 10},
			Runs: []harness.WidthRun{{Width: 4,
				Base: &pipeline.Stats{Bpred: study}, Exp: &pipeline.Stats{Bpred: study}}},
		}},
	}}
}

// TestBpredCSVImpliesReport pins the shared -bpred-csv contract: it turns
// on the probe and the printed study, not only the CSV file.
func TestBpredCSVImpliesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bpred.csv")
	f := parse(t, "-no-cache", "-bpred-csv", path)
	var o harness.Options
	f.Start(&o).Finish()
	if !f.BpredReport || !o.Probe {
		t.Fatalf("-bpred-csv: BpredReport=%v Probe=%v, want both on", f.BpredReport, o.Probe)
	}
	var out bytes.Buffer
	f.WriteBpred(&out, probedResult(), 4, 5)
	if !strings.Contains(out.String(), "mcf/base w4: tage") || !strings.Contains(out.String(), "mcf/exp w4: tage") {
		t.Errorf("-bpred-csv printed no study:\n%s", out.String())
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 3 {
		t.Errorf("bpred CSV has %d lines, want a header and one row per binary:\n%s", lines, csv)
	}
}

type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteBufferedSurfacesWriteErrors pins that the shared file writer
// reports a failing destination even through writers that drop their own
// write errors (harness.WriteCSV and WriteMarkdownReport use unchecked
// fmt.Fprint calls).
func TestWriteBufferedSurfacesWriteErrors(t *testing.T) {
	writers := map[string]func(io.Writer) error{
		"csv":      func(w io.Writer) error { harness.WriteCSV(w, nil, []int{4}); return nil },
		"markdown": func(w io.Writer) error { harness.WriteMarkdownReport(w, nil, []int{4}); return nil },
	}
	for name, fn := range writers {
		if err := writeBuffered(failingWriter{}, fn); !errors.Is(err, errDiskFull) {
			t.Errorf("%s: error %v, want %v", name, err, errDiskFull)
		}
		var buf bytes.Buffer
		if err := writeBuffered(&buf, fn); err != nil || buf.Len() == 0 {
			t.Errorf("%s: healthy write: %d bytes, error %v", name, buf.Len(), err)
		}
	}
	want := errors.New("renderer failed")
	if err := WriteFile(filepath.Join(t.TempDir(), "x"), func(io.Writer) error { return want }); err != want {
		t.Errorf("WriteFile dropped the callback's error: %v", err)
	}
}

// TestSharedFlagsHelpIdentical builds the five experiment commands and
// requires every shared flag's -h lines to be byte-identical across them.
func TestSharedFlagsHelpIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the five commands")
	}
	cmds := []string{"spec", "ablate", "figures", "vanguard", "vgrun"}
	bin := t.TempDir()
	args := []string{"build", "-o", bin}
	for _, c := range cmds {
		args = append(args, "vanguard/cmd/"+c)
	}
	build := exec.Command("go", args...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var first map[string]string
	for _, c := range cmds {
		out, _ := exec.Command(filepath.Join(bin, c), "-h").CombinedOutput()
		help := flagHelp(string(out))
		for _, name := range sharedNames {
			if help[name] == "" {
				t.Errorf("%s -h: no -%s entry", c, name)
			}
		}
		if first == nil {
			first = help
			continue
		}
		for _, name := range sharedNames {
			if help[name] != first[name] {
				t.Errorf("-%s help differs between %s and %s:\n%s\nvs\n%s", name, cmds[0], c, first[name], help[name])
			}
		}
	}
}

// flagHelp splits flag.PrintDefaults output into each flag's lines.
func flagHelp(out string) map[string]string {
	help := map[string]string{}
	name := ""
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			name = strings.Fields(line)[0][1:]
			help[name] = line + "\n"
		case strings.HasPrefix(line, "    \t") && name != "":
			help[name] += line + "\n"
		default:
			name = ""
		}
	}
	return help
}
