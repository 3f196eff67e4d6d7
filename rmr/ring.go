package rmr

import "sync"

// Ring is a flight recorder: a fixed-capacity ring buffer of the most
// recent trace events. Long or exploratory runs install Ring.Record as the
// tracer so that tracing stays O(capacity) in memory, and dump the tail of
// the trace only when something goes wrong (see the locktest violation
// replay). Recording is mutex-serialized — cheap next to the traced
// operation path — and allocation-free after construction.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int   // index of the slot the next event lands in
	total int64 // events ever recorded
}

// NewRing creates a flight recorder keeping the last n events (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		panic("rmr: NewRing capacity must be at least 1")
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Record stores ev, evicting the oldest event when full. It is the Tracer
// to install: m.SetTracer(ring.Record).
func (r *Ring) Record(ev Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total reports how many events were recorded over the ring's lifetime,
// including evicted ones.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// PassageSimLatencies extracts the simulated duration of every passage that
// both opened and closed inside the buffered window, in completion order:
// per process, a passage opens on an OpPhase event leaving PhaseIdle and
// closes on the one returning to it, and its latency is the process's
// simulated-clock delta (Event.STime) between the two. Passages truncated
// by eviction at either end are skipped.
func (r *Ring) PassageSimLatencies() []int64 {
	type openPassage struct {
		active bool
		start  int64
	}
	open := map[int]openPassage{}
	var out []int64
	for _, ev := range r.Events() {
		if ev.Op != OpPhase {
			continue
		}
		oldPh, newPh := Phase(ev.Old), Phase(ev.New)
		o := open[ev.Proc]
		switch {
		case oldPh == PhaseIdle && newPh != PhaseIdle:
			open[ev.Proc] = openPassage{active: true, start: ev.STime}
		case newPh == PhaseIdle && o.active:
			out = append(out, ev.STime-o.start)
			open[ev.Proc] = openPassage{}
		}
	}
	return out
}

// Reset discards the buffered events (capacity is retained).
func (r *Ring) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
	r.mu.Unlock()
}
