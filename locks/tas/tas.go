// Package tas implements an abortable test-and-test-and-set lock on the
// simulated shared memory. It is the simplest possible abortable lock —
// O(1) space, trivially abortable because waiters own no queue state — and
// serves as the harness's unfair anchor: its RMR cost per passage is
// unbounded under contention (every handoff invalidates every spinner),
// which is exactly the pathology queue locks exist to avoid.
package tas

import (
	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "tas",
		Summary:   "abortable test-and-test-and-set lock: O(1) space, unbounded RMRs under contention (unfair anchor)",
		Abortable: true,
		Labels:    []string{"tas/"},
		// Processes race on one shared word and keep no id-indexed layout.
		IDSymmetric: true,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, _ int) (locks.HandleFunc, error) {
			l := New(m)
			return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
		},
	})
}

// Lock is a single-word test-and-test-and-set lock.
type Lock struct {
	word rmr.Addr // 0 = free, 1 = held
}

// New allocates a TAS lock in m.
func New(m *rmr.Memory) *Lock {
	l := &Lock{word: m.Alloc(0)}
	m.Label(l.word, 1, "tas/word")
	return l
}

// Handle returns process p's handle to the lock.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	return &Handle{l: l, p: p}
}

// Handle is one process's interface to the lock.
type Handle struct {
	l *Lock
	p *rmr.Proc
}

// Enter acquires the lock, or returns false if the abort signal arrives
// while waiting.
func (h *Handle) Enter() bool {
	// TAS has no doorway: the passage is one long contended wait.
	h.p.EnterPhase(rmr.PhaseWaiting)
	for {
		if h.p.Read(h.l.word) == 0 && h.p.CAS(h.l.word, 0, 1) {
			h.p.EnterPhase(rmr.PhaseCS)
			return true
		}
		if h.p.AbortSignal() {
			h.p.EnterPhase(rmr.PhaseAbort)
			h.p.EnterPhase(rmr.PhaseIdle)
			return false
		}
		// The word is 1 while held; spin for the releasing write (it
		// invalidates every spinner — TAS's thundering herd is the
		// pathology queue locks avoid).
	}
}

// Exit releases the lock.
func (h *Handle) Exit() {
	h.p.EnterPhase(rmr.PhaseExit)
	h.p.Write(h.l.word, 0)
	h.p.EnterPhase(rmr.PhaseIdle)
}
