package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestDiffSurfacesGolden pins every rendering of the baseline-vs-vanguard
// differential byte for byte, for mcf on the fast inputs at width 4: the
// attribution and predictor text reports, the CPI-stack, branch-delta
// and classification-join CSVs, and the long-form predictor CSV of the
// same probed runs. Regenerate with
//
//	go test ./internal/harness/ -run TestDiffSurfacesGolden -update
func TestDiffSurfacesGolden(t *testing.T) {
	c := mustBench(t, "mcf")
	ad, err := RunAttrDiff(c, fastOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := RunBpredDiff(c, fastOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	o := fastOptions()
	o.Attr, o.Probe = true, true
	o.RefInputs = o.RefInputs[:1]
	res, err := RunBenchmark(c, o)
	if err != nil {
		t.Fatal(err)
	}

	surfaces := []struct {
		file  string
		write func(io.Writer) error
	}{
		{"attrdiff.txt", func(w io.Writer) error { WriteAttrDiff(w, ad, 10); return nil }},
		{"bpredreport.txt", func(w io.Writer) error { WriteBpredReport(w, bd, 10); return nil }},
		{"cpistack.csv", func(w io.Writer) error { _, err := WriteCPIStackCSV(w, ad); return err }},
		{"branches.csv", func(w io.Writer) error { _, err := WriteBranchDeltaCSV(w, ad); return err }},
		{"bpredjoin.csv", func(w io.Writer) error { _, err := WriteBpredJoinCSV(w, bd); return err }},
		{"bpred.csv", func(w io.Writer) error { _, err := WriteBpredCSV(w, []*BenchResult{res}); return err }},
	}
	for _, s := range surfaces {
		var got bytes.Buffer
		if err := s.write(&got); err != nil {
			t.Fatalf("%s: %v", s.file, err)
		}
		golden := filepath.Join("testdata", "diff_mcf_w4", s.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", s.file, golden, got.Bytes(), want)
		}
	}
}
