// Package longlived implements the generic transformation of §6 of the
// paper (Figure 5), converting the one-shot abortable lock into a long-lived
// starvation-free abortable lock with the same asymptotic RMR cost.
//
// The long-lived lock is a single word LockDesc packing a tuple (Lock, Spn,
// Refcnt): the current one-shot instance, the spin node associated with it,
// and a reference count of processes currently accessing the instance.
// Acquisition F&As the refcount up, obtaining the instance atomically;
// Cleanup F&As it down, and the process that drops it to zero switches the
// descriptor to fresh instances with a CAS. A process whose previous
// acquisition used the current instance busy-waits on the instance's spin
// node, which the switcher sets after a successful switch — establishing
// "LockDesc.Lock changed" in O(1) RMRs (§6).
//
// Two modes are provided:
//
//   - Unbounded (Figure 5 verbatim): every switch installs freshly allocated
//     instances, mirroring the paper's simplifying assumption that
//     allocation of initialized one-shot locks is free of charge.
//   - Bounded (§6.2): O(N) one-shot instances recycled through the
//     versioned lazy-reset scheme (reclaim.Region) and O(N) spin nodes
//     recycled under hazard announcements; see DESIGN.md (Substitutions)
//     for the deviations from Aghazadeh et al.'s reclamation scheme.
//
// The transformation preserves starvation freedom but not FCFS (§6).
package longlived

import (
	"fmt"

	"sublock/internal/oneshot"
	"sublock/internal/reclaim"
	"sublock/rmr"
)

// LockDesc field layout: [lock:24][spn:24][refcnt:16].
const (
	refcntBits = 16
	spnBits    = 24
	lockBits   = 24

	refcntMask = (uint64(1) << refcntBits) - 1
	spnShift   = refcntBits
	spnMask    = (uint64(1) << spnBits) - 1
	lockShift  = refcntBits + spnBits
	lockMask   = (uint64(1) << lockBits) - 1

	// decRefcnt is the F&A operand that decrements the refcount field
	// (two's-complement −1; the refcount is ≥ 1 whenever it is applied,
	// so the subtraction never borrows into the Spn field).
	decRefcnt = ^uint64(0)
)

func pack(lock, spn, refcnt uint64) uint64 {
	return lock<<lockShift | spn<<spnShift | refcnt
}

func unpack(d uint64) (lock, spn, refcnt uint64) {
	return d >> lockShift & lockMask, d >> spnShift & spnMask, d & refcntMask
}

// Config configures a long-lived lock.
type Config struct {
	// W is the tree arity of the underlying one-shot lock; 2 ≤ W ≤ 64.
	W int
	// N is the number of processes; N < 2^16.
	N int
	// Adaptive selects AdaptiveFindNext in the one-shot instances.
	Adaptive bool
	// Bounded enables the §6.2 memory management: O(N) recycled one-shot
	// instances and spin nodes instead of fresh allocation per switch.
	Bounded bool
	// VersionBits is the version-field width for bounded-mode lazy reset
	// (wraparound is defeated by the eager sweep; small values are valid
	// and make wraparound testable). 0 selects the default of 16.
	VersionBits uint
	// NoSpinNodes is an ablation knob: instead of waiting on the switched
	// instance's spin node, a process that already used the current
	// instance re-reads LockDesc until Lock changes. §6 argues this costs
	// up to N−1 RMRs per wait (every Refcnt change invalidates the reader's
	// copy); experiment E13 measures exactly that.
	NoSpinNodes bool
}

// Lock is a long-lived abortable lock. Obtain a per-process Handle to
// operate it.
type Lock struct {
	m    *rmr.Memory
	cfg  Config
	desc rmr.Addr // LockDesc

	hazards rmr.Addr // bounded: hazard[0..N-1], protected spn index + 1

	// Pool bookkeeping: the Go-level free/retired lists (the paper's
	// "allocate" steps, which it treats as free of charge). Only the
	// running process touches them — processes run one at a time under the
	// memory's scheduler — so they need no lock; every shared-memory effect
	// of recycling — version sweeps, spin-node resets, hazard reads — goes
	// through a Proc and is charged RMRs. Another process may run at any
	// Proc operation, so no list update spans one.
	instances    []*instance
	spins        []rmr.Addr
	freeLocks    []int // bounded
	freeSpins    []int // bounded
	retiredSpins []int // bounded: awaiting a hazard scan
}

// instance couples a one-shot lock with its recycling region (nil when the
// lock runs in unbounded mode).
type instance struct {
	os     *oneshot.Lock
	region *reclaim.Region
}

// handle returns a fresh one-shot handle for process p, routed through the
// versioned accessor in bounded mode.
func (ins *instance) handle(p *rmr.Proc) *oneshot.Handle {
	if ins.region != nil {
		return ins.os.HandleWith(p, ins.region.Accessor(p))
	}
	return ins.os.Handle(p)
}

// New allocates a long-lived lock in m. The memory must use the CC model:
// the paper's long-lived construction is for CC only (Table 1).
func New(m *rmr.Memory, cfg Config) (*Lock, error) {
	if m.Model() != rmr.CC {
		return nil, fmt.Errorf("longlived: requires the CC memory model")
	}
	if cfg.N < 1 || uint64(cfg.N) >= 1<<refcntBits {
		return nil, fmt.Errorf("longlived: N=%d outside [1, %d)", cfg.N, 1<<refcntBits)
	}
	if cfg.NoSpinNodes && cfg.Bounded {
		// Descriptor polling identifies instances by index, which bounded
		// mode reuses; the resulting ABA would let a waiter miss a switch
		// and spin past quiescence. The ablation is unbounded-only.
		return nil, fmt.Errorf("longlived: NoSpinNodes requires unbounded mode")
	}
	if cfg.VersionBits == 0 {
		cfg.VersionBits = 16
	}
	l := &Lock{m: m, cfg: cfg}

	if !cfg.Bounded {
		ins, err := l.freshInstance()
		if err != nil {
			return nil, err
		}
		l.instances = []*instance{ins}
		l.spins = []rmr.Addr{m.Alloc(0)}
		l.desc = m.Alloc(pack(0, 0, 0))
		m.Label(l.spins[0], 1, "longlived/spinnode")
		m.Label(l.desc, 1, "longlived/lockdesc")
		return l, nil
	}

	// Bounded mode: N+2 recyclable instances and 2N+4 spin nodes cover the
	// worst case of one in-flight allocation per process plus the live pair
	// plus up to N hazard-protected spin nodes.
	l.hazards = m.AllocN(cfg.N, 0)
	for i := 0; i < cfg.N+2; i++ {
		ins, err := l.freshBoundedInstance()
		if err != nil {
			return nil, err
		}
		l.instances = append(l.instances, ins)
		if i > 0 {
			l.freeLocks = append(l.freeLocks, i)
		}
	}
	nspins := 2*cfg.N + 4
	spinBase := m.AllocN(nspins, 0)
	l.spins = make([]rmr.Addr, nspins)
	for i := range l.spins {
		l.spins[i] = spinBase + rmr.Addr(i)
	}
	for i := 1; i < nspins; i++ {
		l.freeSpins = append(l.freeSpins, i)
	}
	l.desc = m.Alloc(pack(0, 0, 0))
	m.Label(l.hazards, cfg.N, "longlived/hazard")
	m.Label(spinBase, nspins, "longlived/spinnode")
	m.Label(l.desc, 1, "longlived/lockdesc")
	return l, nil
}

func (l *Lock) oneshotConfig() oneshot.Config {
	return oneshot.Config{W: l.cfg.W, N: l.cfg.N, Adaptive: l.cfg.Adaptive}
}

// freshInstance builds an unbounded-mode instance directly in the memory.
func (l *Lock) freshInstance() (*instance, error) {
	os, err := oneshot.New(l.m, l.oneshotConfig())
	if err != nil {
		return nil, fmt.Errorf("longlived: %w", err)
	}
	return &instance{os: os}, nil
}

// freshBoundedInstance builds an instance inside its own versioned region.
func (l *Lock) freshBoundedInstance() (*instance, error) {
	region, err := reclaim.NewRegion(l.m, l.cfg.VersionBits)
	if err != nil {
		return nil, fmt.Errorf("longlived: %w", err)
	}
	os, err := oneshot.New(region, l.oneshotConfig())
	if err != nil {
		return nil, fmt.Errorf("longlived: %w", err)
	}
	region.Seal()
	return &instance{os: os, region: region}, nil
}

// Handle returns process p's handle to the lock.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	return &Handle{l: l, p: p, oldSpn: -1}
}

// Handle is one process's interface to the long-lived lock. It is not safe
// for concurrent use by multiple goroutines.
type Handle struct {
	l      *Lock
	p      *rmr.Proc
	oldSpn int // spin node of the last instance this process accessed

	cur *oneshot.Handle // between a successful Enter and its Exit
}

// Enter attempts to acquire the lock (Algorithm 6.1), returning false if
// the process's abort signal arrives while waiting — either on the spin
// node guarding instance reuse or inside the one-shot instance itself.
func (h *Handle) Enter() bool {
	if h.cur != nil {
		panic("longlived: Enter while holding the lock")
	}
	h.p.EnterPhase(rmr.PhaseDoorway)
	// Lines 57–61: if the current instance is the one we used last, wait
	// for the switch (signalled through its spin node).
	lck, spn, _ := unpack(h.p.Read(h.l.desc))
	if int(spn) == h.oldSpn {
		h.p.EnterPhase(rmr.PhaseWaiting)
		if h.l.cfg.NoSpinNodes {
			// Ablation: poll the descriptor itself. Every concurrent
			// Refcnt F&A invalidates our copy, so this wait can cost up to
			// N−1 RMRs before Lock changes — the cost spin nodes avoid.
			for {
				if l2, _, _ := unpack(h.p.Read(h.l.desc)); l2 != lck {
					break
				}
				if h.p.AbortSignal() {
					h.p.EnterPhase(rmr.PhaseAbort)
					h.p.EnterPhase(rmr.PhaseIdle)
					return false
				}
				// Any change to the packed descriptor (including refcount
				// churn) invalidates our copy; only a lock-index change
				// ends the wait.
			}
		} else {
			spinAddr := h.l.spinAddr(int(spn))
			for h.p.Read(spinAddr) == 0 {
				if h.p.AbortSignal() {
					h.p.EnterPhase(rmr.PhaseAbort)
					h.p.EnterPhase(rmr.PhaseIdle)
					return false
				}
			}
		}
		h.p.EnterPhase(rmr.PhaseDoorway)
	}
	// Line 62: increment Refcnt, atomically obtaining Lock and Spn.
	lockIdx, spnIdx, _ := unpack(h.p.FAA(h.l.desc, 1))
	if h.l.cfg.Bounded {
		// Announce the spin node we may later busy-wait on, so it cannot be
		// recycled while our oldSpn refers to it. Publishing while holding
		// the refcount guarantees the announcement precedes any switch.
		h.p.Write(h.l.hazards+rmr.Addr(h.p.ID()), spnIdx+1)
	}
	osh := h.l.instance(int(lockIdx)).handle(h.p)
	osh.SetNested()   // this passage ends at the wrapper's boundaries, not the instance's
	if !osh.Enter() { // line 63
		h.cleanup() // runs in PhaseAbort, where the instance's abort left us
		h.p.EnterPhase(rmr.PhaseIdle)
		return false
	}
	h.cur = osh
	return true
}

// Exit releases the lock (Algorithm 6.2). It panics if the process does not
// hold it.
func (h *Handle) Exit() {
	if h.cur == nil {
		panic("longlived: Exit without holding the lock")
	}
	h.cur.Exit() // leaves us in PhaseExit (nested handle), so cleanup is attributed there
	h.cur = nil
	h.cleanup()
	h.p.EnterPhase(rmr.PhaseIdle)
}

// cleanup is Algorithm 6.3: drop our reference and, if we were the last
// user of the instance, switch the descriptor to fresh instances and wake
// the processes waiting for the switch.
func (h *Handle) cleanup() {
	oldLock, oldSpn, refcnt := unpack(h.p.FAA(h.l.desc, decRefcnt))
	h.oldSpn = int(oldSpn)
	if refcnt != 1 {
		return
	}
	newLock := h.l.allocLock(h.p)
	newSpn := h.l.allocSpn(h.p)
	old := pack(oldLock, oldSpn, 0)
	next := pack(uint64(newLock), uint64(newSpn), 0)
	if h.p.CAS(h.l.desc, old, next) {
		h.p.Write(h.l.spinAddr(int(oldSpn)), 1) // line 77: oldSpn.go ← true
		h.l.retire(int(oldLock), int(oldSpn))
	} else {
		h.l.unalloc(newLock, newSpn)
	}
}

// spinAddr returns the shared word of spin node idx.
func (l *Lock) spinAddr(idx int) rmr.Addr {
	return l.spins[idx]
}

// instance returns instance idx.
func (l *Lock) instance(idx int) *instance {
	return l.instances[idx]
}

// allocLock returns a ready-to-install instance index: a recycled one in
// bounded mode (version bumped and swept by p), a freshly built one in
// unbounded mode.
func (l *Lock) allocLock(p *rmr.Proc) int {
	if !l.cfg.Bounded {
		ins, err := l.freshInstance()
		if err != nil {
			// Construction can only fail on invalid configuration, which
			// New already validated.
			panic(fmt.Sprintf("longlived: fresh instance: %v", err))
		}
		l.instances = append(l.instances, ins)
		if uint64(len(l.instances)) > lockMask {
			panic("longlived: unbounded mode exceeded 2^24 instance switches")
		}
		return len(l.instances) - 1
	}
	idx := l.freeLocks[len(l.freeLocks)-1]
	l.freeLocks = l.freeLocks[:len(l.freeLocks)-1]
	l.instances[idx].region.Recycle(p)
	return idx
}

// allocSpn returns a spin node index whose word reads 0.
func (l *Lock) allocSpn(p *rmr.Proc) int {
	if !l.cfg.Bounded {
		a := l.m.Alloc(0)
		l.m.Label(a, 1, "longlived/spinnode")
		l.spins = append(l.spins, a)
		if uint64(len(l.spins)) > spnMask {
			panic("longlived: unbounded mode exceeded 2^24 spin nodes")
		}
		return len(l.spins) - 1
	}
	for {
		if n := len(l.freeSpins); n > 0 {
			idx := l.freeSpins[n-1]
			l.freeSpins = l.freeSpins[:n-1]
			p.Write(l.spins[idx], 0) // reset the go flag left by its previous retire
			return idx
		}
		// Claim the retired list before the hazard scan, whose reads let
		// other processes run (and retire more spin nodes).
		retired := l.retiredSpins
		l.retiredSpins = nil
		hazarded := make(map[int]bool, l.cfg.N)
		for q := 0; q < l.cfg.N; q++ {
			if v := p.Read(l.hazards + rmr.Addr(q)); v != 0 {
				hazarded[int(v-1)] = true
			}
		}
		var freed, kept []int
		for _, idx := range retired {
			if hazarded[idx] {
				kept = append(kept, idx)
			} else {
				freed = append(freed, idx)
			}
		}
		l.freeSpins = append(l.freeSpins, freed...)
		l.retiredSpins = append(l.retiredSpins, kept...)
	}
}

// retire records that a switched-out instance and spin node are done with.
func (l *Lock) retire(lockIdx, spnIdx int) {
	if !l.cfg.Bounded {
		return // unbounded: switched-out objects are simply abandoned
	}
	// The instance is quiescent the moment it is switched out (its refcount
	// was zero and the descriptor no longer reaches it), so it returns to
	// the free pool directly. The spin node may still be referenced by
	// processes' oldSpn, so it waits for a hazard scan.
	l.freeLocks = append(l.freeLocks, lockIdx)
	l.retiredSpins = append(l.retiredSpins, spnIdx)
}

// unalloc returns instances allocated for a switch that lost its CAS. They
// were never visible to other processes, so they are immediately reusable.
func (l *Lock) unalloc(lockIdx, spnIdx int) {
	if !l.cfg.Bounded {
		return
	}
	l.freeLocks = append(l.freeLocks, lockIdx)
	l.freeSpins = append(l.freeSpins, spnIdx)
}

// Instances reports how many one-shot instances back the lock so far: a
// constant N+2 in bounded mode, growing with switches in unbounded mode.
func (l *Lock) Instances() int {
	return len(l.instances)
}
