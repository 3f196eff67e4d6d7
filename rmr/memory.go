package rmr

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Model selects the memory model under which RMRs are counted.
type Model int

const (
	// CC is the cache-coherent model: reads of cached words are free;
	// updates invalidate other processes' copies.
	CC Model = iota + 1
	// DSM is the distributed shared-memory model: each word is local to one
	// process and remote to all others.
	DSM
)

// String returns the conventional abbreviation of the model.
func (m Model) String() string {
	switch m {
	case CC:
		return "CC"
	case DSM:
		return "DSM"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Addr is the address of a shared word within a Memory.
type Addr int32

// NoOwner marks a word that is remote to every process in the DSM model
// (e.g. a global variable that lives in "home" memory).
const NoOwner = -1

// word is a single W-bit shared memory location together with the coherence
// bookkeeping needed to charge RMRs.
//
// Locking discipline: val is atomic, so single-value accesses (Peek, the
// DSM data path) never lock. Free-running CC operations that must mutate
// the value and the (inline) coherence set together serialize on the
// word's seqlock — claim flips seq odd, release flips it back even — while
// a cached read, which mutates nothing, validates a lock-free
// (inline, val) snapshot against seq. The mutex serves only the cold
// paths that need a critical section wider than the seqlock allows:
// traced operations (the event must be ordered with the mutation) and
// wide (nprocs > 64) memories, whose spilled cache sets are multi-word.
// Operations on a memory gated by an undrained Scheduler skip all of it:
// the step token already serializes them.
type word struct {
	mu     sync.Mutex
	seq    atomic.Uint32 // odd while an update is in flight
	val    atomic.Uint64
	cached cacheSet     // CC: set of processes holding a valid cached copy
	owner  int32        // DSM: process the word is local to, or NoOwner
	label  atomic.Int32 // label id for RMR attribution, 0 = unlabeled
}

// claim acquires the word's seqlock for mutation, leaving seq odd. Paired
// with release. Callers on the mutex paths bump seq inside mu instead; the
// two disciplines never contend for the same word (the mutex paths belong
// to whole-memory modes — tracing, wide cache sets — under which the
// seqlock paths are not taken).
func (w *word) claim() uint32 {
	for {
		s := w.seq.Load()
		if s&1 == 0 && w.seq.CompareAndSwap(s, s+1) {
			return s
		}
		osyield()
	}
}

// release ends a claim, making the mutation visible to snapshot readers.
func (w *word) release(s uint32) {
	w.seq.Store(s + 2)
}

// Words are stored in geometrically growing segments (8, 16, 32, … words)
// published through atomic pointers: allocation is append-only, so a reader
// that observes the published size is guaranteed to observe the segment and
// the word's initialization without taking any lock. Segment k holds
// segMin<<k words; numSegs segments cover the whole int32 address space.
// segMin is kept small because a small configuration allocates only a few
// words: the first segment is its dominant allocation wherever a Memory is
// built per run rather than recycled with Reset.
const (
	segMinShift = 3
	segMin      = 1 << segMinShift
	numSegs     = 29
)

// locate maps an address to its segment index and offset within it.
// Segment k starts at address segMin·(2^k − 1), so the segment index is
// derived from the position of the top bit of a/segMin + 1.
func locate(a int64) (seg, off int) {
	q := uint64(a)>>segMinShift + 1
	k := bits.Len64(q) - 1
	return k, int(a) - (segMin<<k - segMin)
}

// Memory is a simulated shared memory. All words are allocated through it,
// and all operations on it are linearizable: each operation takes effect
// atomically at a single instant.
//
// The zero value is not usable; construct with NewMemory.
type Memory struct {
	model  Model
	nprocs int
	gate   Gate
	sched  *Scheduler // gate when it is a Scheduler; enables lock elision
	wide   bool       // nprocs > 64: cached sets spill to heap bitsets

	mu       sync.Mutex                      // serializes allocation, labels, observer install
	segs     [numSegs]atomic.Pointer[[]word] // append-only word segments
	size     atomic.Int64                    // published number of allocated words
	labels   []string                        // label id → name; labels[0] = "" (unlabeled)
	labelIDs map[string]int32                // label name → id

	procs []Proc

	// obs is nil unless a tracer or a Stats collector is installed; the
	// operation fast paths check only this pointer. clock timestamps
	// observed events.
	obs   atomic.Pointer[observer]
	clock atomic.Int64

	// cost prices charged operations in simulated time (cost.go). nil means
	// the default Unit model and keeps the op paths identical to the
	// pre-seam code: like model and gate it is set during setup (see
	// SetCostModel) and read without synchronization on the hot paths.
	cost CostModel

	// ftab is the free-running wait table behind Proc.Wait (wait.go). Its
	// parked counter stays zero under a gate, which keeps the mutating
	// operations' wakeup hook to a single atomic load.
	ftab futexTable
	// waitPolicy selects adaptive (spin→yield→park) or dense-yield waiting
	// for free-running Wait calls; see SetWaitPolicy.
	waitPolicy WaitPolicy
}

// NewMemory creates a memory for nprocs processes under the given model.
// gate may be nil, in which case processes run without schedule control.
func NewMemory(model Model, nprocs int, gate Gate) *Memory {
	if model != CC && model != DSM {
		panic(fmt.Sprintf("rmr: invalid model %d", int(model)))
	}
	if nprocs <= 0 {
		panic(fmt.Sprintf("rmr: invalid process count %d", nprocs))
	}
	m := &Memory{}
	m.init(model, nprocs)
	m.SetGate(gate)
	return m
}

// Reset returns m to the state NewMemory(m.Model(), m.NumProcs(), nil)
// returned: no words, no labels, no gate, observer or cost model, default
// wait policy, and every process's counters and signal cleared. It keeps
// the word segments, the label table and the procs for the next life, so
// a driver that builds a fresh configuration per run (the exhaustive
// harness) can recycle one memory instead of reallocating it. No process
// may be using m, and no Proc handle from before the Reset may be used to
// observe the old state after it.
func (m *Memory) Reset() {
	m.init(m.model, m.nprocs)
}

// init sets every field to its NewMemory state. It rebuilds the struct as
// a whole, so a field added later starts zeroed unless listed here; only
// the allocations worth recycling are carried over, cleared.
func (m *Memory) init(model Model, nprocs int) {
	var segs [numSegs]*[]word
	for k, used := 0, m.size.Load(); k < numSegs; k++ {
		sp := m.segs[k].Load()
		if sp == nil {
			break
		}
		if used > 0 {
			clear((*sp)[:min(used, int64(len(*sp)))])
			used -= int64(len(*sp))
		}
		segs[k] = sp
	}
	procs := m.procs
	if len(procs) == nprocs {
		clear(procs)
	} else {
		procs = make([]Proc, nprocs)
	}
	labels := m.labels
	clear(labels)
	labelIDs := m.labelIDs
	if labelIDs == nil {
		labelIDs = make(map[string]int32)
	}
	clear(labelIDs)
	labelIDs[""] = 0
	*m = Memory{
		model:    model,
		nprocs:   nprocs,
		wide:     nprocs > 64,
		procs:    procs,
		labels:   append(labels[:0], ""),
		labelIDs: labelIDs,
	}
	for k, sp := range segs {
		if sp != nil {
			m.segs[k].Store(sp)
		}
	}
	for i := range m.procs {
		m.procs[i].m = m
		m.procs[i].id = i
	}
}

// Model reports the memory model of m.
func (m *Memory) Model() Model { return m.model }

// SetGate installs (or removes, with nil) the schedule gate. It is intended
// for test setup: perform initialization ungated, then attach the scheduler
// before launching the concurrent phase. It must not be called while any
// process is issuing operations; as a guard against the most damaging form
// of that misuse — swapping gates while the current scheduler is
// mid-schedule, which silently invalidates the step-token exclusivity the
// lock-elision paths rely on — SetGate panics when the installed gate is a
// Scheduler with an undrained schedule in progress.
func (m *Memory) SetGate(g Gate) {
	if s := m.sched; s != nil && s.active() {
		panic("rmr: SetGate while the current scheduler is mid-schedule")
	}
	m.gate = g
	m.sched, _ = g.(*Scheduler)
	if m.sched != nil {
		// Back-pointer for the visited-state reduction: the scheduler's
		// pick callback fingerprints this memory at quiescent points.
		m.sched.mem = m
	}
	// A gate takes over schedule control: release any process still parked
	// from a free-running phase (Wait no-ops under a gate, so it would
	// never re-park). The woken processes re-check their conditions.
	m.ftab.wakeAll()
}

// SetCostModel installs the cost model that prices charged operations in
// simulated time (see CostModel in cost.go). nil or Unit restores the
// default unit accounting, under which SimTime equals RMRs and the op fast
// paths are untouched. Cost is observe-only: it never changes what the
// processes do, which operations charge RMRs, or how schedules unfold.
//
// Like SetGate and SetTracer it is setup-time only — install the model
// before launching the concurrent phase. As a guard against swapping models
// mid-run it panics when the installed gate is a Scheduler with an undrained
// schedule in progress.
func (m *Memory) SetCostModel(cm CostModel) {
	if s := m.sched; s != nil && s.active() {
		panic("rmr: SetCostModel while the current scheduler is mid-schedule")
	}
	if cm == Unit {
		cm = nil
	}
	m.mu.Lock()
	m.cost = cm
	m.mu.Unlock()
}

// CostModel returns the installed cost model; the default is Unit.
func (m *Memory) CostModel() CostModel {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cost == nil {
		return Unit
	}
	return m.cost
}

// exclusive reports whether the issuing process holds exclusive access to
// the memory: a Scheduler gate serializes operations through its step
// token until it is drained open, so the operation needs no per-word lock
// and no seqlock handshake. (Draining opens the gate strictly before any
// released process runs, so a drained process always observes open and
// falls back to the locked paths.)
func (m *Memory) exclusive() bool {
	return m.sched != nil && !m.sched.open.Load()
}

// NumProcs reports the number of processes the memory was created for.
func (m *Memory) NumProcs() int { return m.nprocs }

// Proc returns the handle for process id (0 <= id < NumProcs).
func (m *Memory) Proc(id int) *Proc {
	return &m.procs[id]
}

// Alloc allocates one shared word initialized to init. In the DSM model the
// word is remote to every process; use AllocLocal for process-local words.
func (m *Memory) Alloc(init uint64) Addr {
	return m.AllocLocal(NoOwner, init)
}

// AllocLocal allocates one shared word initialized to init that is local to
// process owner in the DSM model. Ownership is ignored under CC.
func (m *Memory) AllocLocal(owner int, init uint64) Addr {
	return m.AllocNLocal(owner, 1, init)
}

// AllocN allocates n consecutive words, all initialized to init, and returns
// the address of the first. Words are remote to all processes under DSM.
func (m *Memory) AllocN(n int, init uint64) Addr {
	return m.AllocNLocal(NoOwner, n, init)
}

// AllocNLocal allocates n consecutive words local to process owner in the
// DSM model, all initialized to init, and returns the address of the first.
// The words are guaranteed adjacent, so callers may lay out multi-word
// records and address fields at fixed offsets.
//
// Allocation may run concurrently with operations on already-allocated
// words: each word is fully initialized before the new size is published,
// so lock-free readers never observe a partially constructed word.
func (m *Memory) AllocNLocal(owner, n int, init uint64) Addr {
	m.mu.Lock()
	base := m.size.Load()
	if base+int64(n) > int64(1)<<31 {
		m.mu.Unlock()
		panic(fmt.Sprintf("rmr: address space exhausted allocating %d words at %d", n, base))
	}
	for i := int64(0); i < int64(n); i++ {
		k, off := locate(base + i)
		sp := m.segs[k].Load()
		if sp == nil {
			s := make([]word, segMin<<k)
			sp = &s
			m.segs[k].Store(sp)
		}
		w := &(*sp)[off]
		w.val.Store(init)
		w.owner = int32(owner)
		if m.model == CC && m.wide {
			b := newBitset(m.nprocs)
			w.cached.spill = &b
		}
	}
	m.size.Store(base + int64(n))
	m.mu.Unlock()
	return Addr(base)
}

// Size reports the number of shared words allocated so far. It is the
// space-complexity measurement used by the Table 1 space experiment.
func (m *Memory) Size() int {
	return int(m.size.Load())
}

// Label attributes the n consecutive words starting at base to the named
// region (e.g. "tree/level2", "mcs/qnode"): trace events and Stats charge
// the words' RMRs to that label. n == 0 registers the name without labeling
// anything, which lets a structure pre-intern labels for words it will only
// allocate mid-run (so a Stats collector created before the run still has
// a column for them). Label the words right after allocating them, before
// they are shared; relabeling a word that other processes are operating on
// is atomic per word but attributes in-flight events arbitrarily.
func (m *Memory) Label(base Addr, n int, name string) {
	id := m.LabelID(name)
	for i := 0; i < n; i++ {
		m.word(base + Addr(i)).label.Store(id)
	}
}

// LabelID interns name and returns its label id (stable for the lifetime
// of the memory, assigned in first-use order starting at 1; "" is 0).
func (m *Memory) LabelID(name string) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.labelIDs[name]; ok {
		return id
	}
	id := int32(len(m.labels))
	m.labels = append(m.labels, name)
	m.labelIDs[name] = id
	return id
}

// LabelName resolves a label id from an Event or a Stats snapshot; unknown
// ids and 0 resolve to "".
func (m *Memory) LabelName(id int32) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || int(id) >= len(m.labels) {
		return ""
	}
	return m.labels[id]
}

// Labels returns a copy of the label table, indexed by label id; index 0 is
// the unlabeled region "".
func (m *Memory) Labels() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.labels...)
}

// Peek returns the current value of a word without charging an RMR and
// without affecting coherence state. It is intended for tests and harness
// assertions only, never for algorithm code. The value is a single atomic
// load, so Peek linearizes with concurrent operations without locking.
func (m *Memory) Peek(a Addr) uint64 {
	return m.word(a).val.Load()
}

// Poke sets the value of a word without charging an RMR but invalidating all
// cached copies (so that spinning processes observe it). Like Peek it is a
// testing/harness facility, not part of the machine model. It must not run
// concurrently with operations of a gated memory's processes (in practice
// every Poke is initialization-time, before the run starts).
func (m *Memory) Poke(a Addr, v uint64) {
	w := m.word(a)
	w.mu.Lock()
	s := w.claim()
	w.val.Store(v)
	if m.model == CC {
		w.cached.clear()
	}
	w.release(s)
	w.mu.Unlock()
}

// word resolves an address without locking: the size check (an atomic load
// that acquires the allocating publication) and two dependent loads. This
// is the per-operation translation path, so it must never contend — N
// simulated processes touching N distinct words must not serialize on the
// host.
func (m *Memory) word(a Addr) *word {
	if int64(a) < 0 || int64(a) >= m.size.Load() {
		panic(fmt.Sprintf("rmr: address %d out of range [0,%d)", a, m.size.Load()))
	}
	k, off := locate(int64(a))
	return &(*m.segs[k].Load())[off]
}
