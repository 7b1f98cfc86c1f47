package bpred

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// streamEvent is one committed branch of the synthetic stream: its static
// ID, its PC and its actual direction.
type streamEvent struct {
	id    int
	pc    uint64
	taken bool
}

// streamPending is an in-flight branch waiting for its out-of-order
// update, carrying its prediction-time Meta the way the DBB does.
type streamPending struct {
	streamEvent
	pred bool
	meta Meta
}

// streamBranches is the number of static branches in the stream.
const streamBranches = 48

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ladderStream generates n committed branches over streamBranches static
// branches of five kinds: biased coins, periodic patterns, counted loops,
// branches correlated with outcomes up to 120 branches back (so the
// longest TAGE histories matter), and fair coins. Control flow mostly
// walks the branches in order with occasional jumps, so global history
// carries real structure. Outcomes do not depend on any predictor.
func ladderStream(n int, seed uint64) []streamEvent {
	type branch struct {
		pc         uint64
		kind       int
		period     int
		pattern    uint64
		bias       uint64 // taken when rand%100 < bias
		lagA, lagB int
		count      int
	}
	s := seed
	bs := make([]branch, streamBranches)
	for i := range bs {
		b := &bs[i]
		// Spread the PCs so every index hash sees high PC bits too.
		b.pc = 0x400 + uint64(i)*4 + (splitmix(&s)%4)<<uint(12+i%20)
		b.kind = i % 5
		b.period = 3 + int(splitmix(&s)%38)
		b.pattern = splitmix(&s)
		b.bias = 80 + splitmix(&s)%19
		b.lagA = 1 + int(splitmix(&s)%120)
		b.lagB = 1 + int(splitmix(&s)%120)
	}
	var hist Hist
	bit := func(i int) bool {
		if i < 64 {
			return hist[0]>>uint(i)&1 == 1
		}
		return hist[1]>>uint(i-64)&1 == 1
	}
	out := make([]streamEvent, n)
	cur := 0
	for k := range out {
		r := splitmix(&s)
		if r%8 == 0 {
			cur = int(r>>8) % len(bs)
		} else {
			cur = (cur + 1) % len(bs)
		}
		b := &bs[cur]
		var taken bool
		switch b.kind {
		case 0:
			taken = r>>20%100 < b.bias
		case 1:
			taken = b.pattern>>uint(b.count%b.period)&1 == 1
		case 2:
			taken = b.count%b.period != b.period-1
		case 3:
			taken = bit(b.lagA) != bit(b.lagB)
		default:
			taken = r>>40&1 == 1
		}
		b.count++
		hist.Push(taken)
		out[k] = streamEvent{id: cur, pc: b.pc, taken: taken}
	}
	return out
}

// driveLadderStream runs evs through d with the pipeline's protocol:
// Predict, a speculative PushHistory of the prediction, Restore plus a
// push of the actual outcome on a misprediction, occasional wrong-path
// excursions that predict and push and then restore, and out-of-order
// Updates with the prediction-time Meta from a reorder window of up to
// seven branches. Every prediction and Meta goes to sink when non-nil;
// every update is observed by p when non-nil. pend is scratch, so a warm
// caller's drive allocates nothing.
func driveLadderStream(d DirPredictor, p *Probe, evs []streamEvent, pend []streamPending, sink func(bool, Meta)) []streamPending {
	rng := uint64(0x2545f4914f6cdd1d)
	update := func(u *streamPending) {
		d.Update(u.pc, u.taken, u.meta)
		if p != nil {
			p.ObserveResolve(u.id, u.taken, u.pred != u.taken, &u.meta)
		}
	}
	pend = pend[:0]
	for _, e := range evs {
		r := splitmix(&rng)
		ck := d.Checkpoint()
		pred, meta := d.Predict(e.pc)
		if sink != nil {
			sink(pred, meta)
		}
		d.PushHistory(pred)
		switch {
		case pred != e.taken:
			d.Restore(ck)
			d.PushHistory(e.taken)
		case r&15 == 0:
			// Wrong-path excursion: fetch runs ahead under a younger
			// misprediction, then the front end repairs history.
			wp := d.Checkpoint()
			for k := 0; k <= int(r>>4&3); k++ {
				wpred, wmeta := d.Predict(e.pc + uint64(k+1)*4)
				if sink != nil {
					sink(wpred, wmeta)
				}
				d.PushHistory(r>>uint(8+k)&1 == 1)
			}
			d.Restore(wp)
		}
		pend = append(pend, streamPending{streamEvent: e, pred: pred, meta: meta})
		for len(pend) > int(splitmix(&rng)&7) {
			j := int(splitmix(&rng) % uint64(len(pend)))
			update(&pend[j])
			pend = append(pend[:j], pend[j+1:]...)
		}
	}
	for i := range pend {
		update(&pend[i])
	}
	return pend[:0]
}

// streamPredictors lists every predictor the stream pins: each ladder
// rung, each ByName configuration, and two TAGE-class predictors with
// 32-entry tables and odd history lengths up to past the 128-bit
// register. The ladder's tables are large enough that every allocation
// finds a free slot; the small ones fill up, so the useful-counter decay
// on a failed allocation runs too.
func streamPredictors() []LadderSpec {
	specs := LadderSpecs()
	for _, name := range []string{"static", "bimodal", "gshare", "default", "tage", "isl-tage", "perceptron"} {
		specs = append(specs, LadderSpec{Name: "byname-" + name, New: func() DirPredictor { return ByName(name) }})
	}
	return append(specs,
		LadderSpec{"small-tage", func() DirPredictor { return NewTAGE(8, 5, 8, []int{5, 11, 23, 47, 97, 130}) }},
		LadderSpec{"small-isl-tage", func() DirPredictor { return NewISLTAGE(8, 5, 9, []int{5, 11, 23, 47, 97, 130}, 4, 6) }},
	)
}

// streamDigests runs the stream through a fresh predictor and returns the
// digest of every prediction, every Meta and the final Survey, plus (when
// a probe is attached) the digest of the probe's report.
func streamDigests(spec LadderSpec, evs []streamEvent, withProbe bool) (stream, probe string) {
	d := spec.New()
	var p *Probe
	if withProbe {
		p = NewProbe(streamBranches)
		p.Attach(d)
	}
	h := fnv.New64a()
	var buf [18]byte
	b2b := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	driveLadderStream(d, p, evs, nil, func(pred bool, m Meta) {
		binary.LittleEndian.PutUint64(buf[0:], m.Hist[0])
		binary.LittleEndian.PutUint64(buf[8:], m.Hist[1])
		buf[16] = byte(m.Provider)
		buf[17] = b2b(pred) | b2b(m.Pred)<<1 | b2b(m.AltPred)<<2 | b2b(m.TagePred)<<3 | b2b(m.Weak)<<4 | b2b(m.LoopHit)<<5
		h.Write(buf[:])
	})
	if s, ok := d.(Surveyor); ok {
		for _, row := range s.Survey() {
			fmt.Fprintf(h, "%s %d %d %d\n", row.Name, row.Entries, row.Occupied, row.Weak)
		}
	}
	stream = digest(h)
	if p != nil {
		js, err := json.Marshal(p.Report(d))
		if err != nil {
			panic(err)
		}
		ph := fnv.New64a()
		ph.Write(js)
		probe = digest(ph)
	}
	return stream, probe
}

func digest(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

// ladderStreamGolden pins, per predictor, the stream digest (predictions,
// Metas, final Survey) and the probe-report digest. The values were taken
// with the per-bit history fold and the per-site TAGE hashing, so any
// host-side optimisation of either must leave them unchanged.
var ladderStreamGolden = map[string][2]string{
	"gshare-4KB":         {"9b800e6f8ca68e30", "0186d9dfcaab0977"},
	"gshare-8KB":         {"ebf8e007418033d9", "22d15c2efa8e139a"},
	"gshare-3table-24KB": {"d06d8fbda8c76466", "af2820ca6956618c"},
	"tage-27KB":          {"8a0455106f585fd2", "3408ea78459280e6"},
	"tage-50KB":          {"f22f712f8bc05019", "91582ea0ddd5fd8a"},
	"isl-tage-64KB":      {"1e2ad41dd427159e", "4dbd5605c3dc6879"},
	"byname-static":      {"d69d5da558281b25", "7b98ac5c67e61bb3"},
	"byname-bimodal":     {"51c2c39edea9636b", "b1bd0c479756e387"},
	"byname-gshare":      {"dbf43280056c99f4", "2bece2cb2dbce934"},
	"byname-default":     {"d06d8fbda8c76466", "af2820ca6956618c"},
	"byname-tage":        {"8a0455106f585fd2", "3408ea78459280e6"},
	"byname-isl-tage":    {"1e2ad41dd427159e", "4dbd5605c3dc6879"},
	"byname-perceptron":  {"679c2e0d0a71b704", "c2242609d67ccb90"},
	"small-tage":         {"86edab21e58d82bf", "8609b80abc2b37bb"},
	"small-isl-tage":     {"f93ffaff34fe6d0f", "5134ba29cd8c3972"},
}

// TestLadderStreamGolden pins the simulated behaviour of every predictor
// at stream level: the same predictions, the same Meta, the same final
// table state and the same probe books. It runs each predictor twice,
// with a probe attached and without, so attaching the observatory must
// not perturb the stream either.
func TestLadderStreamGolden(t *testing.T) {
	evs := ladderStream(30000, 1)
	var table strings.Builder
	for _, spec := range streamPredictors() {
		bare, _ := streamDigests(spec, evs, false)
		probed, probe := streamDigests(spec, evs, true)
		fmt.Fprintf(&table, "\t%q: {%q, %q},\n", spec.Name, bare, probe)
		if bare != probed {
			t.Errorf("%s: attaching a probe changed the stream: %s vs %s", spec.Name, probed, bare)
		}
		want, ok := ladderStreamGolden[spec.Name]
		if !ok {
			t.Errorf("%s: no golden", spec.Name)
			continue
		}
		if bare != want[0] {
			t.Errorf("%s: stream digest %s, golden %s", spec.Name, bare, want[0])
		}
		if probe != want[1] {
			t.Errorf("%s: probe digest %s, golden %s", spec.Name, probe, want[1])
		}
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", table.String())
	}
}

// BenchmarkPredictorLadder measures each ladder rung's host cost per
// branch over a fixed pre-generated stream: one op is one pass of the
// full protocol (predict, push, repair, out-of-order update) over 4096
// branches on a warm predictor. Steady state must not allocate.
func BenchmarkPredictorLadder(b *testing.B) {
	evs := ladderStream(4096, 2)
	for _, spec := range LadderSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			d := spec.New()
			pend := make([]streamPending, 0, 16)
			pend = driveLadderStream(d, nil, evs, pend, nil) // warm up
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				pend = driveLadderStream(d, nil, evs, pend, nil)
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(evs)), "ns/branch")
		})
	}
}
