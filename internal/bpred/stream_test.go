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
	return driveStream(d, p, evs, pend, sink, false)
}

// driveDeepStream is driveLadderStream with a reorder window of 193 to
// 256 branches, so an Update trails its Predict by hundreds of
// predictions, and with forged updates mixed in: about one branch in
// sixteen is preceded by an Update whose Meta no Predict produced. It
// takes one of the 32 youngest pending branches, keeps its PC and Meta
// and changes the history: one bit flipped in the low word, in the high
// word, the same bit in both words, or a random history.
func driveDeepStream(d DirPredictor, p *Probe, evs []streamEvent, pend []streamPending, sink func(bool, Meta)) []streamPending {
	return driveStream(d, p, evs, pend, sink, true)
}

func driveStream(d DirPredictor, p *Probe, evs []streamEvent, pend []streamPending, sink func(bool, Meta), deep bool) []streamPending {
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
		if !deep {
			for len(pend) > int(splitmix(&rng)&7) {
				j := int(splitmix(&rng) % uint64(len(pend)))
				update(&pend[j])
				pend = append(pend[:j], pend[j+1:]...)
			}
			continue
		}
		if f := splitmix(&rng); f&15 == 0 {
			u := &pend[len(pend)-1-int(f>>4%uint64(min(len(pend), 32)))]
			m, bit := u.meta, uint64(1)<<(f>>34&63)
			switch f >> 32 & 3 {
			case 0:
				m.Hist[0] ^= bit
			case 1:
				m.Hist[1] ^= bit
			case 2:
				m.Hist[0] ^= bit
				m.Hist[1] ^= bit
			default:
				m.Hist = Hist{splitmix(&rng), splitmix(&rng)}
			}
			d.Update(u.pc, f>>40&1 == 1, m)
		}
		for len(pend) > 256-int(splitmix(&rng)&63) {
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
// rung and two TAGE-class predictors with
// 32-entry tables and odd history lengths up to past the 128-bit
// register. The ladder's tables are large enough that every allocation
// finds a free slot; the small ones fill up, so the useful-counter decay
// on a failed allocation runs too.
func streamPredictors() []LadderSpec {
	return append(LadderSpecs(),
		LadderSpec{"small-tage", func() DirPredictor { return NewTAGE(8, 5, 8, []int{5, 11, 23, 47, 97, 130}) }},
		LadderSpec{"small-isl-tage", func() DirPredictor { return NewISLTAGE(8, 5, 9, []int{5, 11, 23, 47, 97, 130}, 4, 6) }},
	)
}

// streamDriver runs a stream through a predictor under some update
// protocol; driveLadderStream and driveDeepStream are the two.
type streamDriver func(DirPredictor, *Probe, []streamEvent, []streamPending, func(bool, Meta)) []streamPending

// streamDigests drives the stream through a fresh predictor and returns the
// digest of every prediction, every Meta and the final Survey, plus (when
// a probe is attached) the digest of the probe's report.
func streamDigests(spec LadderSpec, drive streamDriver, evs []streamEvent, withProbe bool) (stream, probe string) {
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
	drive(d, p, evs, nil, func(pred bool, m Meta) {
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
	"small-tage":         {"86edab21e58d82bf", "8609b80abc2b37bb"},
	"small-isl-tage":     {"f93ffaff34fe6d0f", "5134ba29cd8c3972"},
}

// deepStreamGolden pins the same digests under driveDeepStream. Its
// goldens were taken on the TAGE that hashed every Update from m.Hist, so
// an Update that reuses a prediction's hash must still agree when the
// prediction was made hundreds of branches earlier or never made at all.
var deepStreamGolden = map[string][2]string{
	"gshare-4KB":         {"f5cb6d4797206cb9", "8609cdb431788c1e"},
	"gshare-8KB":         {"4ff9bfa9c63c5f6c", "bdb48bda1705cd3d"},
	"gshare-3table-24KB": {"a072836933c5f61e", "b793a3d3ad19b456"},
	"tage-27KB":          {"88de77311f9e7468", "9497a2edabc5c94c"},
	"tage-50KB":          {"8520a34f6b913fd7", "d8c39837cc60aecd"},
	"isl-tage-64KB":      {"3e3b620960571480", "ad3f95d49f85d3be"},
	"small-tage":         {"06d88aa4d0c5ef60", "e53f2776996812f3"},
	"small-isl-tage":     {"5990fad499d2e542", "15bab3dba0fc23f3"},
}

// TestLadderStreamGolden pins the simulated behaviour of every predictor
// at stream level: the same predictions, the same Meta, the same final
// table state and the same probe books, under the shallow reorder window
// of driveLadderStream and the deep, forged-update one of
// driveDeepStream. It runs each predictor twice per stream, with a probe
// attached and without, so attaching the observatory must not perturb
// the stream either.
func TestLadderStreamGolden(t *testing.T) {
	evs := ladderStream(30000, 1)
	for _, stream := range []struct {
		name   string
		drive  streamDriver
		golden map[string][2]string
	}{
		{"ladder", driveLadderStream, ladderStreamGolden},
		{"deep", driveDeepStream, deepStreamGolden},
	} {
		var table strings.Builder
		failed := false
		for _, spec := range streamPredictors() {
			bare, _ := streamDigests(spec, stream.drive, evs, false)
			probed, probe := streamDigests(spec, stream.drive, evs, true)
			fmt.Fprintf(&table, "\t%q: {%q, %q},\n", spec.Name, bare, probe)
			if bare != probed {
				t.Errorf("%s/%s: attaching a probe changed the stream: %s vs %s", stream.name, spec.Name, probed, bare)
			}
			want, ok := stream.golden[spec.Name]
			switch {
			case !ok:
				t.Errorf("%s/%s: no golden", stream.name, spec.Name)
			case bare != want[0]:
				t.Errorf("%s/%s: stream digest %s, golden %s", stream.name, spec.Name, bare, want[0])
			case probe != want[1]:
				t.Errorf("%s/%s: probe digest %s, golden %s", stream.name, spec.Name, probe, want[1])
			default:
				continue
			}
			failed = true
		}
		if failed {
			t.Logf("%s digests of this tree:\n%s", stream.name, table.String())
		}
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
