package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/pipeline"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// sharedNames lists every flag Register defines.
var sharedNames = []string{"jobs", "cache-dir", "no-cache", "progress", "listen", "sweep-trace",
	"sweep-chrome", "attr", "bpred-report", "bpred-csv", "cpuprofile", "memprofile"}

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

// commands are the five experiment commands that call Register.
var commands = []string{"spec", "ablate", "figures", "vanguard", "vgrun"}

// commandHelp builds the five experiment commands and returns each one's
// -h output split into per-flag lines (flagHelp).
func commandHelp(t *testing.T) map[string]map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the five commands")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin}
	for _, c := range commands {
		args = append(args, "vanguard/cmd/"+c)
	}
	build := exec.Command("go", args...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	help := map[string]map[string]string{}
	for _, c := range commands {
		out, _ := exec.Command(filepath.Join(bin, c), "-h").CombinedOutput()
		help[c] = flagHelp(string(out))
	}
	return help
}

// TestSharedFlagsHelpIdentical builds the five experiment commands and
// requires every shared flag's -h lines to be byte-identical across them.
func TestSharedFlagsHelpIdentical(t *testing.T) {
	help := commandHelp(t)
	first := help[commands[0]]
	for _, c := range commands {
		for _, name := range sharedNames {
			if help[c][name] == "" {
				t.Errorf("%s -h: no -%s entry", c, name)
			}
			if help[c][name] != first[name] {
				t.Errorf("-%s help differs between %s and %s:\n%s\nvs\n%s", name, commands[0], c, first[name], help[c][name])
			}
		}
	}
}

// TestReadmeFlagTables audits README's flag tables against the five
// commands' -h output: the shared table lists exactly the flags Register
// defines and each is on all five commands, and each per-tool row's flags
// are on exactly the tools the row names.
func TestReadmeFlagTables(t *testing.T) {
	help := commandHelp(t)
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	shared, perTool := readmeFlagTables(string(readme))
	if len(shared) == 0 || len(perTool) == 0 {
		t.Fatal("README has no shared-flag or per-tool flag table")
	}
	var inTable []string
	for _, row := range shared {
		inTable = append(inTable, row.flags...)
	}
	slices.Sort(inTable)
	want := slices.Clone(sharedNames)
	slices.Sort(want)
	if !slices.Equal(inTable, want) {
		t.Errorf("README shared table lists %v, Register defines %v", inTable, want)
	}
	for _, name := range inTable {
		for _, c := range commands {
			if help[c][name] == "" {
				t.Errorf("README shared table: %s -h has no -%s", c, name)
			}
		}
	}
	for _, row := range perTool {
		for _, name := range row.flags {
			for _, c := range commands {
				if has := help[c][name] != ""; has != row.tools[c] {
					t.Errorf("README per-tool row -%s lists tools %v, but %s -h has it: %v", name, row.tools, c, has)
				}
			}
		}
	}
}

// flagRow is one row of a README flag table: the flags its first cell
// names and, for the per-tool table, the tools its second cell lists.
type flagRow struct {
	flags []string
	tools map[string]bool
}

// readmeFlagTables parses README's shared-flag table (header "| shared
// flag |") and its per-tool table (header "| flag | tools |"). A flag is
// every backquoted span of the first cell that starts with '-'; its name
// is the span's first word without the dash.
func readmeFlagTables(readme string) (shared, perTool []flagRow) {
	var table *[]flagRow
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "| shared flag |"):
			table = &shared
			continue
		case strings.HasPrefix(line, "| flag | tools |"):
			table = &perTool
			continue
		case !strings.HasPrefix(line, "|"):
			table = nil
		}
		if table == nil || strings.HasPrefix(line, "| ---") {
			continue
		}
		cells := strings.Split(line, "|")
		row := flagRow{tools: map[string]bool{}}
		for i, span := range strings.Split(cells[1], "`") {
			if i%2 == 1 && strings.HasPrefix(span, "-") {
				row.flags = append(row.flags, strings.Fields(span)[0][1:])
			}
		}
		if table == &perTool {
			for _, tool := range strings.Split(cells[2], ",") {
				row.tools[strings.TrimSpace(tool)] = true
			}
		}
		*table = append(*table, row)
	}
	return shared, perTool
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

// TestSessionLedger pins the session's views of its one recorder: the
// -json engine section is always there, while the sweep section and the
// sweep_trace.json copy beside the run cache appear only under
// -sweep-trace.
func TestSessionLedger(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		dir := t.TempDir()
		args := []string{"-cache-dir", filepath.Join(dir, "cache")}
		if sweep {
			args = append(args, "-sweep-trace", filepath.Join(dir, "sweep.json"))
		}
		var o harness.Options
		s := parse(t, args...).Start(&o)
		unit := engine.Unit[int]{Label: "u", Key: engine.Key("session-ledger"), Run: func(context.Context) (int, error) { return 1, nil }}
		if _, _, err := harness.RunUnits(o, []engine.Unit[int]{unit}); err != nil {
			t.Fatal(err)
		}
		s.Finish()
		rep := trace.NewReport("test")
		s.Telemetry(rep)
		if rep.Engine == nil || rep.Engine.Units != 1 || rep.Engine.CacheMisses != 1 || len(rep.Engine.UnitWall) != 1 {
			t.Errorf("sweep=%v: engine section %+v, want the one unit, a cache miss", sweep, rep.Engine)
		}
		if (rep.Sweep != nil) != sweep {
			t.Errorf("sweep=%v: report has a sweep section: %v", sweep, rep.Sweep != nil)
		}
		_, err := os.Stat(filepath.Join(o.Cache.Dir(), harness.SweepArtifactName))
		if written := err == nil; written != sweep {
			t.Errorf("sweep=%v: %s beside the cache: %v", sweep, harness.SweepArtifactName, written)
		}
	}
}
