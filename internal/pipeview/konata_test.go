package pipeview

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenReport is a small fixed capture exercising every Konata feature:
// a committed ALU op, a long load whose writeback lands after its commit
// point (the Wb clamp), a mispredicting branch, a squashed wrong-path
// instruction, a dropped PREDICT, and a truncated (still-open) record.
func goldenReport() *trace.PipeviewReport {
	return &trace.PipeviewReport{
		Trigger: "all", TriggerCycle: -1, From: 100, To: 130,
		Records: []trace.PipeviewRecord{
			{Seq: 40, PC: 6, Asm: "addi r1, r1, 1", Fetch: 100, Issue: 104, Complete: 105, Commit: 110, Squash: -1, Drop: -1},
			{Seq: 41, PC: 7, Asm: "ld r7, 0(r6)", Fetch: 100, Issue: 105, Complete: 125, Commit: 110, Squash: -1, Drop: -1},
			{Seq: 42, PC: 8, Asm: "predict @6", Branch: 2, Fetch: 101, Issue: -1, Complete: -1, Commit: -1, Squash: -1, Drop: 101, DBBPush: true, DBBOcc: 1},
			{Seq: 43, PC: 9, Asm: "br r8, @12", Branch: 1, Fetch: 101, Issue: 106, Complete: 107, Commit: 110, Squash: -1, Drop: -1, Cause: "branch", Mispredict: true},
			{Seq: 44, PC: 10, Asm: "mul r5, r1, r2", Fetch: 102, Issue: 108, Complete: 109, Commit: -1, Squash: 110, Drop: -1, Cause: "branch"},
			{Seq: 45, PC: 12, Asm: "st r5, 0(r6)", Fetch: 111, Issue: 115, Complete: -1, Commit: -1, Squash: -1, Drop: -1},
		},
		Flushes: []trace.PipeviewFlush{
			{Cycle: 110, Seq: 43, PC: 9, Branch: 1, Cause: "branch", Killed: 1},
		},
	}
}

// TestKonataGolden pins the export byte-for-byte against the committed
// golden file, so any format drift is an explicit diff. Regenerate with
//
//	go test ./internal/pipeview/ -run TestKonataGolden -update
func TestKonataGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKonata(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if !bytes.HasPrefix(got, []byte("Kanata\t0004\n")) {
		t.Fatalf("export does not start with the Konata header:\n%s", got[:40])
	}

	golden := filepath.Join("testdata", "golden.kanata")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Konata export drifted from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Byte stability: a second render is identical.
	var buf2 bytes.Buffer
	if err := WriteKonata(&buf2, goldenReport()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf2.Bytes()) {
		t.Error("two renders of the same report differ")
	}
}

// TestKonataRoundTrip parses the export back and checks every stage and
// retire cycle against the source records — the parser is the independent
// witness that stage cycles are consistent with the lifetimes.
func TestKonataRoundTrip(t *testing.T) {
	rep := goldenReport()
	var buf bytes.Buffer
	if err := WriteKonata(&buf, rep); err != nil {
		t.Fatal(err)
	}
	ins, err := ParseKonata(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != len(rep.Records) {
		t.Fatalf("parsed %d instructions, want %d", len(ins), len(rep.Records))
	}
	for _, in := range ins {
		r := rep.Record(in.Seq)
		if r == nil {
			t.Fatalf("parsed unknown seq %d", in.Seq)
		}
		if got := in.Stages["F"]; got != r.Fetch {
			t.Errorf("seq %d: F at %d, want fetch %d", in.Seq, got, r.Fetch)
		}
		if r.Issue >= 0 {
			if got, ok := in.Stages["Is"]; !ok || got != r.Issue {
				t.Errorf("seq %d: Is at %d (ok=%v), want issue %d", in.Seq, got, ok, r.Issue)
			}
		} else if _, ok := in.Stages["Is"]; ok {
			t.Errorf("seq %d: spurious Is stage", in.Seq)
		}
		term := r.Terminal()
		if wb, ok := in.Stages["Wb"]; ok {
			want := r.Complete
			if term >= 0 && want > term {
				want = term // the documented clamp
			}
			if wb != want {
				t.Errorf("seq %d: Wb at %d, want %d", in.Seq, wb, want)
			}
			if wb < in.Stages["Is"] {
				t.Errorf("seq %d: Wb %d before Is %d", in.Seq, wb, in.Stages["Is"])
			}
		}
		if term >= 0 {
			if in.Retire != term {
				t.Errorf("seq %d: retired at %d, want terminal %d", in.Seq, in.Retire, term)
			}
			if in.Flush != (r.Squash >= 0) {
				t.Errorf("seq %d: flush=%v, squash cycle %d", in.Seq, in.Flush, r.Squash)
			}
		} else if in.Retire >= 0 {
			t.Errorf("seq %d: open record retired at %d", in.Seq, in.Retire)
		}
		if !strings.Contains(in.Label, r.Asm) {
			t.Errorf("seq %d: label %q lost disassembly %q", in.Seq, in.Label, r.Asm)
		}
	}
	// Spot-check annotations survived.
	if in := ins[3]; !strings.Contains(in.Note, "MISPREDICT cause=branch") || !strings.Contains(in.Note, "branch=1") {
		t.Errorf("mispredict note lost: %q", in.Note)
	}
	if in := ins[2]; !strings.Contains(in.Note, "dbb-push occ=1") {
		t.Errorf("predict note lost: %q", in.Note)
	}
}

// TestParseKonataRejectsJunk pins the parser's strictness: wrong magic
// and unknown record types are errors, not silent skips.
func TestParseKonataRejectsJunk(t *testing.T) {
	if _, err := ParseKonata(strings.NewReader("Kanata\t9999\nI\t0\t0\t0\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ParseKonata(strings.NewReader("Kanata\t0004\nZ\t0\n")); err == nil {
		t.Error("unknown record type accepted")
	}
	if _, err := ParseKonata(strings.NewReader("Kanata\t0004\nS\t0\t0\tF\nS\t0\t0\tF\n")); err == nil {
		t.Error("duplicate stage accepted")
	}
}

// FuzzParseKonata feeds arbitrary bytes to ParseKonata, which reads
// Konata files back for inspection: it must never panic.
func FuzzParseKonata(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.kanata"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte("Kanata\t0004\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseKonata(bytes.NewReader(data)) // only a panic fails
	})
}
