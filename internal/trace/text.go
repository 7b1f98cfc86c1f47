package trace

import (
	"fmt"
	"io"
)

// Text renders events as human-readable lines. With All unset it prints
// only issue and mispredict lines, byte-identical to the historical
// vgrun -trace output; with All set every event kind is rendered.
type Text struct {
	W   io.Writer
	All bool
}

// Emit implements Sink.
func (t *Text) Emit(ev Event) {
	switch ev.Kind {
	case KindIssue:
		fmt.Fprintf(t.W, "[%d] issue seq=%d pc=%d %v\n", ev.Cycle, ev.Seq, ev.PC, ev.Ins)
	case KindMispredict:
		fmt.Fprintf(t.W, "[%d] MISPREDICT %v at pc %d -> redirect %d\n", ev.Cycle, ev.Ins, ev.PC, ev.Val)
	default:
		if !t.All {
			return
		}
		t.emitVerbose(ev)
	}
}

func (t *Text) emitVerbose(ev Event) {
	switch ev.Kind {
	case KindFetch:
		fmt.Fprintf(t.W, "[%d] fetch seq=%d pc=%d %v\n", ev.Cycle, ev.Seq, ev.PC, ev.Ins)
	case KindCommit:
		fmt.Fprintf(t.W, "[%d] commit seq=%d pc=%d %v\n", ev.Cycle, ev.Seq, ev.PC, ev.Ins)
	case KindSquash:
		fmt.Fprintf(t.W, "[%d] squash %d instruction(s) younger than seq=%d\n", ev.Cycle, ev.Val, ev.Seq)
	case KindResolveFire:
		fmt.Fprintf(t.W, "[%d] resolve-fire seq=%d pc=%d -> correction %d\n", ev.Cycle, ev.Seq, ev.PC, ev.Val)
	case KindDBBPush:
		fmt.Fprintf(t.W, "[%d] dbb-push pc=%d occ=%d%s\n", ev.Cycle, ev.PC, ev.Val, causeSuffix(ev.Cause))
	case KindDBBPop:
		fmt.Fprintf(t.W, "[%d] dbb-pop pc=%d occ=%d\n", ev.Cycle, ev.PC, ev.Val)
	case KindCacheMiss:
		fmt.Fprintf(t.W, "[%d] cache-miss %s addr=%#x stall=%d\n", ev.Cycle, ev.Cause, ev.Addr, ev.Val)
	case KindFault:
		fmt.Fprintf(t.W, "[%d] FAULT seq=%d pc=%d %v addr=%#x\n", ev.Cycle, ev.Seq, ev.PC, ev.Ins, ev.Addr)
	case KindComplete:
		fmt.Fprintf(t.W, "[%d] complete seq=%d pc=%d at=%d\n", ev.Cycle, ev.Seq, ev.PC, ev.Val)
	default:
		fmt.Fprintf(t.W, "[%d] %s seq=%d pc=%d cause=%s val=%d\n", ev.Cycle, ev.Kind, ev.Seq, ev.PC, ev.Cause, ev.Val)
	}
}

func causeSuffix(c Cause) string {
	if c == CauseNone {
		return ""
	}
	return " cause=" + c.String()
}

// Close implements Sink.
func (t *Text) Close() error { return nil }

// WriteEvents renders a batch of events (e.g. a Ring dump) in verbose
// text form.
func WriteEvents(w io.Writer, evs []Event) {
	t := &Text{W: w, All: true}
	for _, ev := range evs {
		t.Emit(ev)
	}
}
