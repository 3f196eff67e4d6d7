// Package tournament implements an abortable binary arbitration-tree
// ("tournament") lock: each process owns a leaf of a binary tree and climbs
// to the root, acquiring a two-competitor CAS lock at every internal node;
// holding the root is holding the lock. Aborting releases the nodes
// acquired so far and leaves.
//
// It stands in for Jayanti's abortable lock (PODC 2003) in the Table 1
// experiments: same primitives (CAS), same Θ(log N) RMR shape for every
// passage — including abort-free ones — which is the column the experiments
// contrast with the paper's O(1)/O(log_W A) costs. Unlike Jayanti's
// algorithm it is not FCFS and not adaptive to point contention; see
// DESIGN.md ("Substitutions") for why that does not affect the comparison.
package tournament

import (
	"fmt"

	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "tournament",
		Summary:   "Jayanti-shaped abortable binary arbitration-tree lock: Θ(log N) RMRs per passage (Table 1 row 2)",
		Abortable: true,
		Labels:    []string{"tournament/"},
		// Ids are assigned to fixed arbitration-tree leaves; which internal
		// nodes a process competes at is a function of its id, so permuting
		// ids permutes the contention pattern.
		IDSymmetric: false,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, capacity int) (locks.HandleFunc, error) {
			l, err := New(m, capacity)
			if err != nil {
				return nil, err
			}
			return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
		},
	})
}

// Lock is an abortable tournament lock for up to N processes.
type Lock struct {
	n      int
	height int        // number of internal levels
	levels []rmr.Addr // levels[l] = base of level l+1's words (1-based levels)
}

// New allocates a tournament lock for n processes (ids 0..n-1) in m.
func New(m *rmr.Memory, n int) (*Lock, error) {
	if n < 1 {
		return nil, fmt.Errorf("tournament: n=%d must be positive", n)
	}
	l := &Lock{n: n, height: 1}
	for size := 2; size < n; size *= 2 {
		l.height++
	}
	l.levels = make([]rmr.Addr, l.height+1)
	width := 1 << (l.height - 1)
	for lvl := 1; lvl <= l.height; lvl++ {
		l.levels[lvl] = m.AllocN(width, 0)
		m.Label(l.levels[lvl], width, fmt.Sprintf("tournament/level%d", lvl))
		width /= 2
	}
	return l, nil
}

// Height returns the number of internal tree levels (⌈log₂ N⌉, minimum 1).
func (l *Lock) Height() int { return l.height }

// Handle returns process p's handle. The process id must be < N.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	if p.ID() >= l.n {
		panic(fmt.Sprintf("tournament: process id %d out of range for n=%d", p.ID(), l.n))
	}
	return &Handle{l: l, p: p}
}

// Handle is one process's interface to the lock.
type Handle struct {
	l    *Lock
	p    *rmr.Proc
	held int // number of levels currently held (from level 1 upward)
}

// node returns the address of the arbitration word on p's path at level lvl.
func (h *Handle) node(lvl int) rmr.Addr {
	return h.l.levels[lvl] + rmr.Addr(h.p.ID()>>uint(lvl))
}

// Enter climbs the tree, acquiring every node on the path to the root. It
// returns false — after releasing any nodes already held — if the abort
// signal arrives while waiting at some level.
func (h *Handle) Enter() bool {
	p := h.p
	me := uint64(p.ID()) + 1
	// The tournament has no doorway: the whole climb is contended waiting.
	p.EnterPhase(rmr.PhaseWaiting)
	for lvl := 1; lvl <= h.l.height; lvl++ {
		a := h.node(lvl)
		for {
			if p.Read(a) == 0 && p.CAS(a, 0, me) {
				break
			}
			if p.AbortSignal() {
				p.EnterPhase(rmr.PhaseAbort)
				h.releaseHeld()
				p.EnterPhase(rmr.PhaseIdle)
				return false
			}
			// the holder's releasing write clears the node
		}
		h.held = lvl
	}
	p.EnterPhase(rmr.PhaseCS)
	return true
}

// Exit releases the lock: every node on the path, root first so the next
// winner reaches the critical section as early as possible.
func (h *Handle) Exit() {
	h.p.EnterPhase(rmr.PhaseExit)
	h.releaseHeld()
	h.p.EnterPhase(rmr.PhaseIdle)
}

func (h *Handle) releaseHeld() {
	for lvl := h.held; lvl >= 1; lvl-- {
		h.p.Write(h.node(lvl), 0)
	}
	h.held = 0
}
