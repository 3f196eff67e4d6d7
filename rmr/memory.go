package rmr

import (
	"fmt"
	"math/bits"
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
// bookkeeping needed to charge RMRs. Its fields are plain: a Memory is used
// by one goroutine at a time (see Memory), so an operation is atomic simply
// because nothing else runs while it does.
type word struct {
	val    uint64
	cached cacheSet // CC: set of processes holding a valid cached copy
	owner  int32    // DSM: process the word is local to, or NoOwner
	label  int32    // label id for RMR attribution, 0 = unlabeled
}

// Words are stored in geometrically growing segments (8, 16, 32, … words):
// allocation is append-only and never moves a word, so an Addr stays valid
// and a word's coherence bookkeeping stays put for the memory's lifetime.
// Segment k holds segMin<<k words; numSegs segments cover the whole int32
// address space. segMin is kept small because a small configuration
// allocates only a few words: the first segment is its dominant allocation
// wherever a Memory is built per run rather than rewound (see Rewind).
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
// and every operation takes effect atomically at a single instant.
//
// Like a Go map, a Memory is not safe for concurrent use: at most one
// goroutine may operate on it at a time. Simulated processes run
// concurrently only as the coroutines of a Scheduler (or of a Controller,
// its hand-driven front end), which runs exactly one of them at a time, so
// the interleaving that ran is the one the schedule chose. Ungated use is
// sequential setup or single-process code.
//
// The zero value is not usable; construct with NewMemory.
type Memory struct {
	model  Model
	nprocs int
	gate   Gate
	sched  *Scheduler // the Scheduler behind the gate (a Controller's too): the Explorer's hooks, the mutual-exclusion check
	wide   bool       // nprocs > 64: cached sets spill to heap bitsets

	segs     [numSegs][]word  // append-only word segments
	size     int64            // number of allocated words
	labels   []string         // label id → name; labels[0] = "" (unlabeled)
	labelIDs map[string]int32 // label name → id

	procs []Proc

	// obs is nil unless a tracer or a Stats collector is installed; an
	// unobserved operation checks only this pointer. clock timestamps
	// observed events.
	obs   *observer
	clock int64

	// cost prices charged operations in simulated time (cost.go). nil means
	// the default Unit model, which an operation prices with one nil
	// check: like model and gate it is set during setup (see
	// SetCostModel).
	cost CostModel

	// mark is the setup state Rewind restores: a copy of every word
	// allocated at the last Mark (wide memories' cached sets deep-copied)
	// and the length of the label table then.
	mark       []word
	markLabels int

	// epoch counts the changes to state the visited-state fingerprint
	// covers that no operation makes: abort signals set or cleared,
	// allocation, Poke and Rewind. The Explorer learns what follows an
	// operation only when the epoch did not move after it, except by the
	// abort signals the operating process itself raised with nothing else
	// moving it, which it learns as part of what follows
	// (Scheduler.noteSignal, learnTable).
	epoch uint64
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
	m := &Memory{
		model:      model,
		nprocs:     nprocs,
		wide:       nprocs > 64,
		procs:      make([]Proc, nprocs),
		labels:     []string{""},
		labelIDs:   map[string]int32{"": 0},
		markLabels: 1,
	}
	for i := range m.procs {
		m.procs[i].m = m
		m.procs[i].id = i
	}
	m.SetGate(gate)
	return m
}

// Mark records the memory's current state as its setup state, the state
// Rewind returns it to: the value, coherence set, owner and label of every
// word allocated so far, and the label table. A driver that builds one
// configuration and runs it many times (the exhaustive harness) builds it
// once, marks, and rewinds before each run instead of rebuilding. A memory
// that was never marked has the empty setup state NewMemory returned.
func (m *Memory) Mark() {
	m.mark = m.mark[:0]
	for a := int64(0); a < m.size; a++ {
		w := *m.word(Addr(a))
		if sp := w.cached.spill; sp != nil {
			b := append(bitset(nil), *sp...)
			w.cached.spill = &b
		}
		m.mark = append(m.mark, w)
	}
	m.markLabels = len(m.labels)
}

// Rewind returns m to the state its last Mark recorded. Words allocated
// before the mark get back their exact state at the mark; words allocated
// after it are dropped, and the next allocation reuses their addresses, as
// a fresh build would; labels interned after the mark are forgotten. Every
// process's counters, abort signal and phase are cleared, and the gate,
// observer and cost model are detached, so a rewound memory holds no
// reference to the scheduler that last drove it. The state Rewind restores
// is only the memory's: a lock whose run-time state also lives in Go
// values (free lists, say) must be rebuilt rather than rewound. No process
// may be using m, and no Proc handle from before the Rewind may be used to
// observe the old state after it.
func (m *Memory) Rewind() {
	n := int64(len(m.mark))
	for a := int64(0); a < n; {
		k, off := locate(a)
		seg, mark := m.segs[k][off:], m.mark[a:]
		c := min(len(seg), len(mark))
		if !m.wide {
			copy(seg, mark)
		} else {
			// Each word keeps its own cached set, refilled from the mark's.
			for i := range seg[:c] {
				sp := seg[i].cached.spill
				seg[i] = mark[i]
				if sp != nil {
					copy(*sp, *mark[i].cached.spill)
					seg[i].cached.spill = sp
				}
			}
		}
		a += int64(c)
	}
	m.size = n
	for _, name := range m.labels[m.markLabels:] {
		delete(m.labelIDs, name)
	}
	clear(m.labels[m.markLabels:])
	m.labels = m.labels[:m.markLabels]
	for i := range m.procs {
		p := &m.procs[i]
		p.rmrs, p.steps, p.stime = 0, 0, 0
		p.abort, p.phase = false, PhaseIdle
	}
	m.gate, m.sched, m.obs, m.cost = nil, nil, nil, nil
	m.clock = 0
	m.epoch++
}

// Model reports the memory model of m.
func (m *Memory) Model() Model { return m.model }

// SetGate installs (or removes, with nil) the schedule gate. It is intended
// for test setup: perform initialization ungated, then attach the scheduler
// before launching the concurrent phase. It must not be called while any
// process is issuing operations; as a guard against the most damaging form
// of that misuse — swapping gates while the current scheduler is
// mid-schedule, which lets processes step outside the schedule — SetGate
// panics when the installed gate is a Scheduler with an undrained schedule
// in progress.
func (m *Memory) SetGate(g Gate) {
	if s := m.sched; s != nil && s.active() {
		panic("rmr: SetGate while the current scheduler is mid-schedule")
	}
	m.gate = g
	switch g := g.(type) {
	case *Scheduler:
		m.sched = g
	case *Controller:
		m.sched = g.s
	default:
		m.sched = nil
	}
	if m.sched != nil {
		// Back-pointer for the visited-state reduction: the scheduler's
		// pick callback fingerprints this memory at quiescent points.
		m.sched.mem = m
	}
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
	m.cost = cm
}

// CostModel returns the installed cost model; the default is Unit.
func (m *Memory) CostModel() CostModel {
	if m.cost == nil {
		return Unit
	}
	return m.cost
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
func (m *Memory) AllocNLocal(owner, n int, init uint64) Addr {
	base := m.size
	if base+int64(n) > int64(1)<<31 {
		panic(fmt.Sprintf("rmr: address space exhausted allocating %d words at %d", n, base))
	}
	for i := int64(0); i < int64(n); i++ {
		k, off := locate(base + i)
		if m.segs[k] == nil {
			m.segs[k] = make([]word, segMin<<k)
		}
		// The whole word is written: a rewound memory reuses the addresses
		// of dropped words, whose coherence sets and labels are stale.
		w := &m.segs[k][off]
		*w = word{val: init, owner: int32(owner)}
		if m.model == CC && m.wide {
			b := newBitset(m.nprocs)
			w.cached.spill = &b
		}
	}
	m.size = base + int64(n)
	m.epoch++
	return Addr(base)
}

// Size reports the number of shared words allocated so far. It is the
// space-complexity measurement used by the Table 1 space experiment.
func (m *Memory) Size() int {
	return int(m.size)
}

// Label attributes the n consecutive words starting at base to the named
// region (e.g. "tree/level2", "mcs/qnode"): trace events and Stats charge
// the words' RMRs to that label. n == 0 registers the name without labeling
// anything, which lets a structure pre-intern labels for words it will only
// allocate mid-run (so a Stats collector created before the run still has
// a column for them). Label the words right after allocating them, before
// any process operates on them.
func (m *Memory) Label(base Addr, n int, name string) {
	id := m.LabelID(name)
	for i := 0; i < n; i++ {
		m.word(base + Addr(i)).label = id
	}
}

// LabelID interns name and returns its label id (stable for the lifetime
// of the memory, assigned in first-use order starting at 1; "" is 0).
func (m *Memory) LabelID(name string) int32 {
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
	if id < 0 || int(id) >= len(m.labels) {
		return ""
	}
	return m.labels[id]
}

// Labels returns a copy of the label table, indexed by label id; index 0 is
// the unlabeled region "".
func (m *Memory) Labels() []string {
	return append([]string(nil), m.labels...)
}

// Peek returns the current value of a word without charging an RMR and
// without affecting coherence state. It is intended for tests and harness
// assertions only, never for algorithm code.
func (m *Memory) Peek(a Addr) uint64 {
	return m.word(a).val
}

// Poke sets the value of a word without charging an RMR but invalidating all
// cached copies (so that spinning processes observe it). Like Peek it is a
// testing/harness facility, not part of the machine model, and it obeys the
// same one-goroutine contract as the operations: call it during setup or
// between steps, never from a goroutine other than the one driving the
// memory's processes.
func (m *Memory) Poke(a Addr, v uint64) {
	w := m.word(a)
	w.val = v
	if m.model == CC {
		w.cached.clear()
	}
	m.epoch++
}

// word resolves an address: the size check and two dependent loads. This
// is the per-operation translation path.
func (m *Memory) word(a Addr) *word {
	if int64(a) < 0 || int64(a) >= m.size {
		panic(fmt.Sprintf("rmr: address %d out of range [0,%d)", a, m.size))
	}
	k, off := locate(int64(a))
	return &m.segs[k][off]
}
