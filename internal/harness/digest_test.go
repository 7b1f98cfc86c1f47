package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

// observedStatsDigests pins the sha256 of the full pipeline.Stats JSON —
// counters, stall-run histograms, per-branch books, the sampler series,
// the attribution report, the predictor study and the pipeview capture —
// for each benchmark, width and binary below. The digests were taken
// before the issue stage's stall accounting was unified, so a refactor of
// how a cycle's empty slots are booked must reproduce them byte for byte.
var observedStatsDigests = map[string]string{
	"mcf/w2/base":   "f3d8da4b98237eae7b3b1b8ece3080742b151f257df71da1897759edc6361f60",
	"mcf/w2/exp":    "682ae9d57bfce1f99d1635a3d39b60494a8811fd8d44a7fdf6d755f3b0173063",
	"mcf/w4/base":   "e381cc101737ebf60c7dd154c7b294e5a6b66775de267260537c4c226c69003c",
	"mcf/w4/exp":    "aae55d1cd8d9dc806b116061f2ff6b470fd3cfd868858c35813a82882a91d12b",
	"mcf/w8/base":   "82feae4bd4fa932ebacd0adcee51928dc9bcf70c137bd3d3145a73a47e7057c8",
	"mcf/w8/exp":    "fa223afdfaead1ba250e73cac0bea1422e309d1b70b493feec20e6c8283ace2c",
	"astar/w2/base": "917cfea89ef1a88fd17c9e7cc6249328668cb86530de1440f4ac934928689aab",
	"astar/w2/exp":  "bda8bf94cc8d8861610bd7de0404549d4d85c84c09d3f54c9e801959d4d85cbd",
	"astar/w4/base": "66f444390fc3e8ce11735f82091228cf2b1f946c67113e1fdf290805113e5ba8",
	"astar/w4/exp":  "dd12113c7eca11c83a6f1aab8e5ab987b161daf7be1843b2e2eb2b530b7935fb",
	"astar/w8/base": "9484579db96525ddca155dc19b63d4fba187fdaae94015f93f3f06050819c4d2",
	"astar/w8/exp":  "f7526c2d7bbe3195f3a5632b5056ac19dfcc0ecfad161d1ab3fa5852533f30bd",
	"sjeng/w2/base": "21ac2221afb455fc9a2e92b74351f9f2b07f25d0c4bb43a924eeace2b5ca20cf",
	"sjeng/w2/exp":  "a21bf013c844d5599968f389e86a11271a2b6ce9ae3f1b87a884289238848bcc",
	"sjeng/w4/base": "f7b0c1341e96502ceeeacda655c755915984b23296929cf0d84f7f82c8e60035",
	"sjeng/w4/exp":  "a8c6a1bb783bb10a1e8807536c91acfcb88a6d73b56c6d9aa648c9093d6f0a9a",
	"sjeng/w8/base": "e709ab4705b00b794ffc420857e4d24a58dd17c8d7890a1ffeae3d148d9d1e5a",
	"sjeng/w8/exp":  "7be58e80de4faa0b457ec75ab67a04d24c0422e7c37688c2a38cebea0d32608d",
	"gobmk/w2/base": "aa9398aa6de3f57bc175c6679c0c6d03780f86ab4745b06814267fa74a89109f",
	"gobmk/w2/exp":  "34f93aec240e333a6c6b73e376a26e96cffc7efc482d132a100fb2e9a30ee12a",
	"gobmk/w4/base": "b5ed5bcbaa85eeaef1a979eb4f3fe1bf489ad8fda065a7f26de4248f77948088",
	"gobmk/w4/exp":  "e761eae1cd0d20d1bbf273b4e2a23535036282c49a77715fd04008a4561998c4",
	"gobmk/w8/base": "1cfea09e64b60b7d0cd49b2b05c0c6852dcb6477c9924d0cc82d806099c835b5",
	"gobmk/w8/exp":  "8ed21195e0db8d07850dc14fb5dc8439861e98102516a78df4eab315bf0ed6df",
	"lbm/w2/base":   "cecc028f24554d83cef79e4c8f3e0d73403b0a18156582e297bdb62353599ab7",
	"lbm/w2/exp":    "cf5bd199ff59bf15060f42e13022ec12c5ed28087bb9f92c0bb05813b73d74a5",
	"lbm/w4/base":   "1841e75b4b72e00fc5548c068e538f75af3d0b2af1ee449dfaf185a0a38fe356",
	"lbm/w4/exp":    "aefa2ec3b2dc771bcbb4737b7fa771d08ee9e1d1830b1e9fadc6b1bb9389f275",
	"lbm/w8/base":   "72eba3581a115a0b070de07aff776f5a95398d67db3c39d44b50012abcacd803",
	"lbm/w8/exp":    "47dc9a602b315f9adac3ae7e9c3545db1c23d5f8a2817ee83736c69085546741",
}

// TestObservedStatsDigest runs a few -fast int2006 benchmarks and one
// fp2006 benchmark at widths 2/4/8 with every observer on (attribution,
// predictor probe, 1000-cycle sampling, pipeview) and compares each
// run's Stats JSON digest with the pinned one. Unlike the off-versus-on
// differential tests, which compare two runs of the same code, this pins
// the observers' contents against an earlier revision.
func TestObservedStatsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates five benchmarks at three widths with every observer on")
	}
	for _, name := range []string{"mcf", "astar", "sjeng", "gobmk", "lbm"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		o := FastOptions()
		o.RefInputs = o.RefInputs[:1]
		o.Jobs = 2
		o.Attr = true
		o.Probe = true
		o.SampleWindow = 1000
		o.PipeviewBench = name
		r, err := RunBenchmark(c, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, wr := range r.Inputs[0].Runs {
			for _, b := range []struct {
				binary string
				stats  *pipeline.Stats
			}{{"base", wr.Base}, {"exp", wr.Exp}} {
				st := b.stats
				if st.Attr == nil || st.Bpred == nil || st.Samples == nil || st.Pipeview == nil {
					t.Fatalf("%s/w%d/%s: an observer section is missing", name, wr.Width, b.binary)
				}
				js, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				key := fmt.Sprintf("%s/w%d/%s", name, wr.Width, b.binary)
				if got, want := hex.EncodeToString(sum[:]), observedStatsDigests[key]; got != want {
					t.Errorf("%s: stats digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
