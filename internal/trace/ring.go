package trace

// Ring is a bounded in-memory sink keeping the most recent events for
// post-mortem inspection: attach one cheaply to every run and dump it
// only when something goes wrong (vgrun does exactly this for deferred
// faults).
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
}

// NewRing builds a ring holding the last n events; n must be positive.
func NewRing(n int) *Ring {
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.wrapped = 0, true
	}
}

// Close implements Sink.
func (r *Ring) Close() error { return nil }

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if !r.wrapped {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
