// Package oneshot implements the one-shot abortable lock of §3 of the paper
// (Figure 1): an array-based queue lock in which each process may attempt to
// acquire the lock at most once, augmented with the Tree data structure that
// tracks which queue slots were abandoned by aborting processes.
//
// The lock satisfies mutual exclusion, starvation freedom, bounded exit,
// bounded abort, and FCFS (Theorem 2). A complete passage incurs
// O(log_W A_i) RMRs, where A_i is the number of processes that abort during
// the passage — O(1) if nobody aborts; an aborted attempt incurs
// O(log_W A_t) RMRs, where A_t is the number of aborts in the execution.
//
// Both the CC variant (processes spin on their go slot) and the DSM variant
// (§3, "DSM variant": processes publish a local spin bit in an announce
// array and spin locally) are provided; the variant is chosen by the memory
// model of the rmr.Memory the lock is built in.
package oneshot

import (
	"fmt"

	"sublock/internal/mem"
	"sublock/internal/tree"
	"sublock/rmr"
)

// noProc is the out-of-band value of LastExited before any process exits
// (the paper's −1).
const noProc = ^uint64(0)

// Config configures a one-shot lock.
type Config struct {
	// W is the Tree arity; 2 ≤ W ≤ 64.
	W int
	// N is the maximum number of processes that will call Enter.
	N int
	// Adaptive selects AdaptiveFindNext (Algorithm 4.3) instead of the
	// plain FindNext (Algorithm 4.1) for lock handoffs.
	Adaptive bool
	// NaiveDSM disables the §3 announce/spin-bit indirection in the DSM
	// model, making waiters spin directly on their (remote) go slot. It
	// exists only for the E10 experiment, which prices the indirection:
	// with it a wait costs O(1) RMRs, without it every re-read is remote.
	NaiveDSM bool
}

// Lock is a one-shot abortable lock living in a simulated shared memory.
// Obtain a per-process Handle to operate it.
type Lock struct {
	cfg  Config
	tr   *tree.Tree
	head rmr.Addr // id of the process currently in (or last in) the CS
	tail rmr.Addr // next free queue slot
	last rmr.Addr // LastExited: id of the last process to release the lock
	goB  rmr.Addr // go[0..N-1]: go[i] set means slot i owns the lock

	// DSM variant state.
	dsm  bool
	annB rmr.Addr // announce[0..N-1]: published spin-word address + 1, 0 = ⊥
}

// New allocates a one-shot lock via a. The DSM spin-bit indirection is used
// automatically when a allocates in a DSM-model memory.
func New(a mem.Allocator, cfg Config) (*Lock, error) {
	tr, err := tree.New(a, tree.Config{W: cfg.W, N: cfg.N})
	if err != nil {
		return nil, fmt.Errorf("oneshot: %w", err)
	}
	l := &Lock{
		cfg:  cfg,
		tr:   tr,
		head: a.Alloc(0),
		tail: a.Alloc(0),
		last: a.Alloc(noProc),
		goB:  a.AllocN(cfg.N, 0),
		dsm:  a.Model() == rmr.DSM,
	}
	a.Poke(l.goB, 1) // go = [1, 0, …, 0]: slot 0 owns the lock initially
	if l.dsm {
		l.annB = a.AllocN(cfg.N, 0)
	}
	if lb, ok := a.(mem.Labeler); ok {
		lb.Label(l.head, 1, "oneshot/head")
		lb.Label(l.tail, 1, "oneshot/tail")
		lb.Label(l.last, 1, "oneshot/last")
		lb.Label(l.goB, cfg.N, "oneshot/go")
		if l.dsm {
			lb.Label(l.annB, cfg.N, "oneshot/announce")
			lb.Label(0, 0, "oneshot/spin") // interned now; spin words are per-handle
		}
	}
	return l, nil
}

// Tree exposes the underlying abandonment tree (for tests and metrics).
func (l *Lock) Tree() *tree.Tree { return l.tr }

// Handle returns process p's handle to the lock, issuing memory operations
// directly through p.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	return l.HandleWith(p, p)
}

// HandleWith returns a handle that issues memory operations through acc on
// behalf of p. It exists so the long-lived transformation can interpose the
// §6.2 versioned lazy-reset accessor.
func (l *Lock) HandleWith(p *rmr.Proc, acc mem.Ops) *Handle {
	h := &Handle{l: l, p: p, acc: acc, slot: -1}
	if l.dsm && !l.cfg.NaiveDSM {
		// The spin word is local to the process in the DSM model; it is
		// allocated per handle because a one-shot lock is used once.
		h.spin = p.Memory().AllocLocal(p.ID(), 0)
		p.Memory().Label(h.spin, 1, "oneshot/spin")
	}
	return h
}

// SetNested marks the handle as wrapped by an outer lock (the long-lived
// transformation): the handle still declares the doorway/waiting/CS/exit/
// abort phases, but leaves the closing transition to rmr.PhaseIdle to the
// wrapper, whose passage extends beyond the inner lock's protocol.
func (h *Handle) SetNested() { h.nested = true }

// Handle is a single process's interface to the one-shot lock. A Handle is
// not safe for concurrent use: it represents one process's program order.
type Handle struct {
	l    *Lock
	p    *rmr.Proc
	acc  mem.Ops
	slot int // queue slot obtained by the doorway F&A; -1 before Enter

	spin    rmr.Addr // DSM: local spin word
	entered bool     // between successful Enter and Exit
	done    bool     // Enter has returned (the one shot is spent)
	nested  bool     // wrapped by longlived: the wrapper owns the idle transition
}

// Slot returns the queue slot the doorway assigned, or -1 before Enter.
// The doorway order defines the FCFS order (Lemma 17).
func (h *Handle) Slot() int { return h.slot }

// Enter attempts to acquire the lock (Algorithm 3.1). It returns true when
// the process has entered the critical section, or false if the attempt was
// abandoned after the process received an abort signal (rmr.Proc.SignalAbort).
// Each handle may call Enter at most once; a second call panics, as does
// calling it after the lock has seen N doorway entries.
func (h *Handle) Enter() bool {
	if h.done || h.entered {
		panic("oneshot: Enter called twice on a one-shot handle")
	}
	h.p.EnterPhase(rmr.PhaseDoorway)
	i := int(h.acc.FAA(h.l.tail, 1)) // doorway
	if i >= h.l.cfg.N {
		panic(fmt.Sprintf("oneshot: %d processes entered a lock configured for N=%d", i+1, h.l.cfg.N))
	}
	h.slot = i
	h.p.EnterPhase(rmr.PhaseWaiting)
	if !h.await(i) {
		h.p.EnterPhase(rmr.PhaseAbort)
		h.abort(i)
		h.done = true
		if !h.nested {
			h.p.EnterPhase(rmr.PhaseIdle)
		}
		return false
	}
	h.p.EnterPhase(rmr.PhaseCS)
	h.acc.Write(h.l.head, uint64(i))
	h.entered = true
	return true
}

// await waits until slot i is granted the lock, returning false if the
// abort signal arrived first. In the CC model the process spins on go[i]
// (cache-coherent: re-reads are local until a signaler's write invalidates
// the copy). In the DSM model it publishes a local spin bit in announce[i]
// and spins on that bit, which is in its own memory partition.
func (h *Handle) await(i int) bool {
	if !h.l.dsm || h.l.cfg.NaiveDSM {
		a := h.l.goB + rmr.Addr(i)
		for h.acc.Read(a) == 0 {
			if h.p.AbortSignal() {
				return false
			}
		}
		return true
	}
	// DSM variant: publish spin bit, re-check go once, then spin locally.
	h.acc.Write(h.l.annB+rmr.Addr(i), uint64(h.spin)+1)
	if h.acc.Read(h.l.goB+rmr.Addr(i)) != 0 {
		return true
	}
	for h.acc.Read(h.spin) == 0 {
		if h.p.AbortSignal() {
			return false
		}
	}
	return true
}

// Exit releases the lock (Algorithm 3.2) and hands it to the next
// non-abandoned queue slot. It panics if the process is not in the CS.
func (h *Handle) Exit() {
	if !h.entered {
		panic("oneshot: Exit without a successful Enter")
	}
	h.p.EnterPhase(rmr.PhaseExit)
	head := h.acc.Read(h.l.head)
	h.acc.Write(h.l.last, head)
	h.signalNext(head)
	h.entered = false
	h.done = true
	if !h.nested {
		h.p.EnterPhase(rmr.PhaseIdle)
	}
}

// abort abandons queue slot i (Algorithm 3.3). If the process that last
// exited the CS may have crossed paths with our Tree.Remove — detected by
// Head = LastExited — we assume responsibility for its lock handoff.
func (h *Handle) abort(i int) {
	h.l.tr.Remove(h.acc, i)
	head := h.acc.Read(h.l.head)
	if head != h.acc.Read(h.l.last) {
		return
	}
	h.signalNext(head)
}

// signalNext performs the lock handoff (Algorithm 3.4): find the next
// non-abandoned slot after head and set its go flag. Returning without
// signalling is correct when FindNext yields ⊥ (no successor exists) or ⊤
// (an aborting process crossed our path and assumes responsibility).
func (h *Handle) signalNext(head uint64) {
	var j int
	var out tree.Outcome
	if h.l.cfg.Adaptive {
		j, out = h.l.tr.AdaptiveFindNext(h.acc, int(head))
	} else {
		j, out = h.l.tr.FindNext(h.acc, int(head))
	}
	if out != tree.Found {
		return
	}
	h.setGo(j)
}

// setGo grants the lock to slot j. In the DSM model the grant additionally
// follows the announce indirection so the waiter's local spin bit is set.
func (h *Handle) setGo(j int) {
	h.acc.Write(h.l.goB+rmr.Addr(j), 1)
	if !h.l.dsm || h.l.cfg.NaiveDSM {
		return
	}
	s := h.acc.Read(h.l.annB + rmr.Addr(j))
	if s != 0 {
		h.acc.Write(rmr.Addr(s-1), 1)
	}
}
