package rmr

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// State-hash visited caching and process-ID symmetry reduction for the
// Explorer.
//
// Visited caching cuts re-converging interleavings: at every free choice
// point the recorder fingerprints the quiescent global state — shared
// memory words with their coherence sets, each process's observation
// history, pending abort signals, crash-fault attempt counts, the waiting
// set — together with the depth and the current sleep set, and consults a
// lock-free visited set shared by the whole exploration. A hit means a
// previously replayed schedule reached an identical state at the same
// depth under the same sleep constraints, so every continuation from here
// is a replica of continuations already covered; the replay is cut and
// counted in Result.VisitedHits.
//
// Symmetry reduction restricts the schedule tree to canonical
// representatives of process-ID orbits: a process that has never been
// granted a step may only be granted if it is the smallest never-granted
// id of its role class. For ID-symmetric bodies (locks.Info.IDSymmetric)
// every schedule is equivalent — up to a class-preserving id permutation —
// to a canonical one, so exploring only canonical schedules preserves
// violation verdicts while cutting the (k-1)!-fold redundancy of k
// interchangeable processes. Cut replays count in Result.SymmetryCuts.
//
// Both reductions compose with sleep sets by a well-founded argument over
// the lexicographic schedule order: every cut is justified by a strictly
// lex-smaller schedule of the full tree with the same verdict, so the
// lex-least violating schedule can never be cut. See docs/MODEL.md
// ("State hashing & symmetry") for the soundness discussion, including
// the hash-compaction caveat.

// visitedSet is an open-addressing table of 64-bit state fingerprints,
// lock-free within a task. Slots hold the fingerprint directly; 0 is the
// empty-slot sentinel (fingerprint 0 is remapped on entry). Insertion is a
// CAS per probed slot and the table never evicts: eviction would make cut
// decisions depend on arrival order, destroying the deterministic counts.
// Each worker holds mu's read lock while it walks or replays tasks, not
// while it parks for work. An insertion past 7/8 load below the max size
// requests growth and goes on into the 1/8 of the slots held back; the
// next task boundary rehashes into twice the slots under the write lock.
// Growth moves every key, so the table holds what a table of max slots
// from the start would. At 7/8 load at the max size, or when the held-back
// slots fill before a boundary, the table saturates — lookups still hit
// recorded keys, but new states are no longer recorded and determinism
// across worker counts is lost; Result.VisitedSaturated reports it.
type visitedSet struct {
	mu          sync.RWMutex
	mask        uint64
	slots       []atomic.Uint64
	used        atomic.Int64
	limit, full int64 // growth is requested past limit (7/8 load); full is the most keys the table takes
	max         int
	grow, sat   atomic.Bool
}

// newVisitedSet returns an empty table of n slots that grows up to max,
// both powers of two.
func newVisitedSet(n, max int) *visitedSet {
	vs := &visitedSet{max: max}
	vs.resize(n)
	return vs
}

// The explorer's visited set starts at 2¹⁷ slots (1 MiB) and grows up to
// 2²³ (64 MiB); docs/MODEL.md, "Visited caching", says why.
const visitedMin, visitedCap = 1 << 17, 1 << 23

// resize rehashes the table into n slots. The caller holds the write lock,
// or the only reference to vs.
func (vs *visitedSet) resize(n int) {
	old := vs.slots
	vs.slots, vs.mask, vs.limit, vs.full = make([]atomic.Uint64, n), uint64(n-1), int64(n-n/8), int64(n-1)
	if n >= vs.max {
		vs.full = vs.limit
	}
	for i := range old {
		if fp := old[i].Load(); fp != 0 {
			j := fp & vs.mask
			for vs.slots[j].Load() != 0 {
				j = (j + 1) & vs.mask
			}
			vs.slots[j].Store(fp)
		}
	}
	vs.grow.Store(false)
}

// acquire and release bracket a worker's use of the set, if any.
func (vs *visitedSet) acquire() {
	if vs != nil {
		vs.mu.RLock()
	}
}

func (vs *visitedSet) release() {
	if vs != nil {
		vs.mu.RUnlock()
	}
}

// boundary ends a worker's task: if growth was requested, it doubles the
// table under the write lock unless another worker did.
func (vs *visitedSet) boundary() {
	if vs != nil && vs.grow.Load() {
		vs.mu.RUnlock()
		vs.mu.Lock()
		if vs.grow.Load() {
			vs.resize(2 * len(vs.slots))
		}
		vs.mu.Unlock()
		vs.mu.RLock()
	}
}

// fpKey maps a fingerprint to its key in the table: itself, except that 0,
// the empty-slot sentinel, is remapped.
func fpKey(fp uint64) uint64 {
	if fp == 0 {
		return 0x9e3779b97f4a7c15
	}
	return fp
}

// has reports whether the key fp (see fpKey) was already recorded, without
// recording it.
func (vs *visitedSet) has(fp uint64) bool {
	for i := fp & vs.mask; ; i = (i + 1) & vs.mask {
		switch vs.slots[i].Load() {
		case fp:
			return true
		case 0:
			return false
		}
	}
}

// seen reports whether fp was already recorded, recording it if not (and
// if the table has room).
func (vs *visitedSet) seen(fp uint64) bool {
	fp = fpKey(fp)
	i := fp & vs.mask
	for {
		cur := vs.slots[i].Load()
		if cur == fp {
			return true
		}
		if cur == 0 {
			if !vs.reserve() {
				return false
			}
			if vs.slots[i].CompareAndSwap(0, fp) {
				return false
			}
			vs.used.Add(-1)
			continue // re-examine the slot a racer just filled
		}
		i = (i + 1) & vs.mask
	}
}

// reserve counts one more recorded key if the table takes it, requesting
// growth past the load limit; otherwise the table saturates.
func (vs *visitedSet) reserve() bool {
	u := vs.used.Add(1)
	if u > vs.full {
		vs.used.Add(-1)
		vs.sat.Store(true)
		return false
	}
	if u > vs.limit && !vs.grow.Load() {
		vs.grow.Store(true)
	}
	return true
}

// mix folds v into the running hash h with a splitmix64-style finalizer.
// The visited set stores only 64-bit digests (hash compaction), so a
// collision silently merges two distinct states; with a strong mixer and
// bounded trees the probability is ~replays²/2⁶⁴ and any merge is
// deterministic — the same runs produce the same counts — but it is the
// price of the memory bound.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

// visState is the recorder's visited-caching and symmetry machinery, the
// analogue of porState for the PR-9 reductions.
type visState struct {
	on     bool // visited caching enabled
	sym    bool // symmetry restriction enabled
	nprocs int
	s      *Scheduler  // for memory, history and fault-state access
	set    *visitedSet // shared across all replayers of the exploration

	// Per-replay cut classification, reset by replayer.run.
	vcut bool // cut at an already-visited state
	scut bool // cut at a symmetry-blocked choice point

	// Replay prediction (see walk). rows[d] holds the fingerprint inputs
	// of the free pick at depth d of the current replay or walk.
	pred     bool
	rows     []predRow
	learn    *learnTable
	maxSteps int
	audit    *predictAudit

	// Symmetry state. granted tracks the pids granted at least one step in
	// the current replay; grantedAt snapshots it at node entry per depth
	// (leftmost-writer discipline, like porState.sleepAt), so sibling
	// generation can re-evaluate canonicality at interior nodes. pidAt
	// mirrors porState.pidAt for explorations running symmetry without
	// sleep sets.
	classOf   []int32  // pid -> role-class index
	classMask []uint64 // class -> member pid mask
	granted   uint64
	grantedAt []uint64
	pidAt     []int32 // stride nprocs; unused when porState.pidAt serves
}

// active reports whether the recorder needs the extended pick path.
func (v *visState) active() bool { return v.on || v.sym }

// initSym installs the role-class partition. classes lists the pid sets
// that are interchangeable; pids not mentioned get singleton classes (never
// restricted). nil classes puts every pid in one class.
func (v *visState) initSym(nprocs int, classes [][]int) {
	v.classOf = make([]int32, nprocs)
	for i := range v.classOf {
		v.classOf[i] = -1
	}
	if classes == nil {
		all := make([]int, nprocs)
		for i := range all {
			all[i] = i
		}
		classes = [][]int{all}
	}
	for _, class := range classes {
		var m uint64
		idx := int32(len(v.classMask))
		for _, pid := range class {
			if pid < 0 || pid >= nprocs {
				continue
			}
			m |= 1 << uint(pid)
			v.classOf[pid] = idx
		}
		v.classMask = append(v.classMask, m)
	}
	for pid, c := range v.classOf {
		if c < 0 {
			v.classOf[pid] = int32(len(v.classMask))
			v.classMask = append(v.classMask, 1<<uint(pid))
		}
	}
}

// symBlocked reports whether granting pid is non-canonical at a node with
// granted-mask g and waiting-mask wm: pid was never granted and a smaller
// never-granted pid of its class is waiting at this very node. Requiring
// the smaller pid to be present keeps the cut sound — the canonical
// alternative (swap the two interchangeable fresh pids, granting the
// smaller one here) must actually exist at this node — and means honest
// launch disciplines never strand a class.
func (v *visState) symBlocked(pid int, g, wm uint64) bool {
	if g&(1<<uint(pid)) != 0 {
		return false
	}
	min := bits.TrailingZeros64(v.classMask[v.classOf[pid]] &^ g)
	return min != pid && wm&(1<<uint(min)) != 0
}

// ensureDepth grows the per-depth symmetry snapshots to cover depth step.
func (v *visState) ensureDepth(step int, needPid bool) {
	for len(v.grantedAt) <= step {
		v.grantedAt = append(v.grantedAt, 0)
		if needPid {
			for i := 0; i < v.nprocs; i++ {
				v.pidAt = append(v.pidAt, -1)
			}
		}
	}
}

// seen fingerprints the current quiescent state at the given depth and
// sleep mask and reports whether it was already visited, recording it if
// not. The fingerprint covers everything the continuation can depend on:
//
//   - every shared word's value and (CC) inline coherence set — the
//     memory-model state;
//   - each process's observation-history hash (Scheduler.hist): the
//     addresses, results and abort-flag observations of its operations so
//     far, which pin its control state because the body is deterministic;
//   - the pending abort flags (signals delivered but perhaps not yet
//     observed) and the waiting set;
//   - under a crash-only fault plan, each process's operation-attempt
//     count (crash points key off it);
//   - the depth and the sleep mask, so that a hit guarantees an identical
//     residual tree — this is what makes Explored/Pruned/Equivalent/
//     VisitedHits order-independent at any worker count, and what keeps
//     the sleep-set and visited reductions sound in combination (the
//     classical "ignoring problem" of state caching under sleep sets).
//
// The inputs are kept in the depth's row, which the replay prediction
// reads once the replay is over.
func (v *visState) seen(depth int, sleepMask, wm uint64) bool {
	s := v.s
	m := s.mem
	row := v.row(depth)
	if m == nil {
		// An ungated body: nothing to fingerprint (see Body contract), and
		// an empty waiting set, so predict reads nothing else.
		row.wm = 0
		return false
	}
	row.wm = wm
	row.ab = 0
	for i := range m.procs {
		if m.procs[i].abort && i < 64 {
			row.ab |= 1 << uint(i)
		}
	}
	row.granted = v.granted // symmetry decisions below the node depend on it
	row.hold = -1
	if h := s.holder; h >= 0 && m.procs[h].holdsCS() {
		row.hold = h
	}
	row.mem = m.snapshot(row.mem[:0])
	row.hist = append(row.hist[:0], s.hist...)
	if s.pend != nil {
		row.ctl = append(row.ctl[:0], s.ctl...)
		clear(row.pend)
		row.fresh = 0
		for q := wm; q != 0; q &= q - 1 {
			if pid := bits.TrailingZeros64(q); s.deferred[pid] == nil { // started, so parked on a known op
				row.pend[pid] = s.pend[pid]
			} else {
				row.fresh |= 1 << uint(pid)
			}
		}
	}
	row.model = m.model
	row.sum = stateSum(row.mem, row.hist)
	var ops []int32
	if f := s.fs; f != nil {
		ops = f.ops
	}
	row.key = fpKey(fingerprint(depth, sleepMask, row.granted, row.wm, row.ab, row.sum, ops))
	return v.set.seen(row.key)
}

// fingerprint hashes a quiescent state's inputs (see seen): a header of
// the depth, the sleep, granted and waiting masks, the abort flags and,
// under a fault plan, the operation-attempt counts, chained by mix, then
// the state sum of the memory snapshot and the histories, which stepRow
// updates by the terms a step changes instead of rehashing every word.
func fingerprint(depth int, sleep, granted, wm, ab, sum uint64, ops []int32) uint64 {
	h := mix(0x8c9da6b1f8d3a7e5, uint64(depth))
	h = mix(mix(mix(mix(h, sleep), granted), wm), ab)
	for _, op := range ops {
		h = mix(h, uint64(uint32(op)))
	}
	return mix(h, sum)
}

// stateSum is the sum, modulo 2⁶⁴, of one term per memory snapshot slot
// and one per process's observation history.
func stateSum(mem, hist []uint64) uint64 {
	var s uint64
	for i, x := range mem {
		s += memTerm(i, x)
	}
	for p, x := range hist {
		s += histTerm(p, x)
	}
	return s
}

// memTerm is snapshot slot i's term when it holds x (word i/2's value for
// even i, its inline coherence set for odd i), histTerm process p's when
// its history is x: x mixed with a salt of its slot.
func memTerm(i int, x uint64) uint64  { return mix(uint64(i+1)*0xa0761d6478bd642f, x) }
func histTerm(p int, x uint64) uint64 { return mix(uint64(p+1)*0xe7037ed1a0b428db, x) }

// snapshot appends every allocated word's value and inline coherence set
// to dst, in address order. Called at quiescent pick points only, where no
// operation is in flight.
func (m *Memory) snapshot(dst []uint64) []uint64 {
	for k, a := 0, int64(0); a < m.size; k++ {
		seg := m.segs[k][:min(int64(len(m.segs[k])), m.size-a)]
		for i := range seg {
			dst = append(dst, seg[i].val, seg[i].cached.inline)
		}
		a += int64(len(seg))
	}
	return dst
}

// histFold folds one operation — its address, its result, and the abort
// flag the process could have observed — into an observation history. The
// constant keeps the empty history (0) out of the fold's range for every
// operation: mix(0, 0) is 0, so without it a process whose first
// operation read 0 at address 0 would hash like one that has not started.
func histFold(h uint64, a Addr, v uint64, aborted bool) uint64 {
	return mix(mix(mix(h^0x6a09e667f3bcc909, uint64(a)), v), flag(aborted))
}

// ctlFold folds one operation into a control history, which keys the
// learn table. Unlike histFold it includes the operation's kind, so equal
// control histories mean equal operation sequences with equal results, up
// to a 64-bit collision — and therefore, the body being deterministic,
// equal control states.
func ctlFold(h uint64, op Op, a Addr, v uint64, aborted bool) uint64 {
	h = mix(h^0x2545f4914f6cdd1d, uint64(op)<<34|uint64(uint32(a))<<1|flag(aborted))
	return mix(h^0x9e3779b97f4a7c15, v)
}

// launchCtl is the control history a GoProc process's launch ends
// (Scheduler.noteLaunch): a hash of its abort flag, so that it folds
// into distinct histories under ctlFold, which XORs that flag in.
func launchCtl(aborted bool) uint64 { return mix(0x7f4a7c159e3779b9, flag(aborted)) }

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Replay prediction. Most replays the explorer cuts end a few steps below
// the choice that branched them off their parent — at a visited hit, at
// the step bound, at a sleep- or symmetry-blocked pick — after replaying
// the whole forced prefix to reach a state the parent replay nearly
// knows. At each free pick seen keeps the state's fingerprint inputs in
// the depth's row, the waiting processes' pending operations included. So
// for each sibling it pushes, the explorer steps that row (stepRow): it
// applies the sibling's branch operation to it (apply, the memory model's
// one copy) and the stepping process's learned continuation, which gives
// the row S1 the sibling's replay records at its first free pick. The
// task carries S1. At dequeue, walk does from S1 what the replay would do
// at each free pick: it looks up the state's key, and on a miss grants
// the process the replay grants (the first waiting process neither asleep
// nor symmetry-blocked), wakes the sleepers that step conflicts with, and
// steps the row again — until a visited hit, the step bound or a blocked
// pick, which it counts exactly like the replay it stands in for, or a
// step it cannot tell, which sends the task to a replay and keeps nothing
// of the walk. A counted walk records the states it passed as visited and
// leaves the recorder as that replay leaves it, so the sibling subtrees
// pushed next are the replay's. So a replay runs only where the explorer
// has something to learn, and a prediction never changes a count.
//
// What a process does after its operation is not in the row. The body is
// deterministic, so a process's control state is a function of its
// history — the contract visited caching rests on — and the learn table
// records, at every gate arrival and process exit, what followed the
// operation that ends the process's control history (ctlFold): it parks
// again, on a given operation, or exits. The grant that launches a GoProc
// process counts as an operation ending the history of its abort flag, so
// the table also learns the operation a process starts with. The abort
// signals the process raises on the way are learned with it (the pids, as
// a mask the step ORs into the row's abort flags), so the exhaustive
// body's signal process, whose read is followed by SignalAbort, is walked
// like any other. Any other change after the operation to state the
// fingerprint covers (Memory.epoch: a signal another process or the
// driver raises, ClearAbort, allocation) marks the history unpredictable,
// and so does a second, different mask. The table also flags a
// continuation that declared PhaseCS, and the walk never steps through
// one: the states below the first it passes were never reached by a
// replay, so none ran the Scheduler's mutual-exclusion check on the step
// into them. A state that is truly a visited hit was reached before with
// the same history for the stepping process, which then parked or exited,
// so its successor was learned then — by the same worker at Workers 1.
//
// Prediction is on whenever visited caching is, unless a fault plan or the
// watchdog is armed: both make a step's successor depend on more than the
// process's history.

// pendingOp is the operation a process waits at the gate to perform; the
// zero value (op 0) marks an unknown one.
type pendingOp struct {
	op       Op
	addr     Addr
	cmp, arg uint64
}

// predRow holds the fingerprint inputs of the free pick at one depth of
// the current replay or walk, its key, and the control histories the
// learn table is keyed by.
type predRow struct {
	mem             []uint64    // each word's value and inline coherence set (Memory.snapshot)
	hist            []uint64    // observation history, by pid
	ctl             []uint64    // control history, by pid (ctlFold)
	pend            []pendingOp // pending operation of each started waiting pid, by pid
	ab, wm, granted uint64      // abort flags, waiting set, symmetry's granted mask
	fresh           uint64      // waiting pids not started yet (GoProc)
	hold            int         // the pid holding the critical section, or -1
	model           Model       // the memory model the words follow
	sum             uint64      // the state sum of mem and hist (stateSum)
	key             uint64      // the visited key, once looked up
}

// row returns the depth's row, growing the table as needed.
func (v *visState) row(depth int) *predRow {
	for len(v.rows) <= depth {
		v.rows = append(v.rows, predRow{pend: make([]pendingOp, v.nprocs)})
	}
	return &v.rows[depth]
}

// What follows an operation, as the learn table records it: a class, the
// learnCS flag when the process declared PhaseCS before it parked or
// exited, and the learnHolds flag when it then held the critical section
// (Proc.holdsCS).
const (
	learnParks         = 1 + iota // the process waits at the gate again
	learnExits                    // the process returns
	learnUnpredictable            // fingerprinted state changed after the operation

	learnCS    = 4
	learnHolds = 8
	learnBits  = 15
)

// learnTable maps (pid, control history) to what the process did after
// the operation that ends the history. A slot's key holds a 60-bit hash
// of the key above what followed (the learn bits, the low four); 0 is the
// empty slot. A slot also holds the operation the process parked on and
// the pids it signalled. A learn table belongs to one worker, so it needs
// no atomics. It starts small and doubles whenever it is 7/8 full, up to
// learnCap slots; there it saturates: it stops recording, which only
// costs predictions. Growing moves no key into or out of the table, so
// what it holds is what a table of learnCap slots from the start would.
type learnTable struct {
	slots       []learnSlot
	mask        uint64
	used, limit int
}

type learnSlot struct {
	key    uint64
	parked pendingOp
	sig    uint64 // the pids whose abort flags the continuation set (noteSignal)
}

// learnMin and learnCap are the learn table's first and largest slot
// counts: 1 Ki and 16 Ki slots of 48 bytes, 48 KiB and 768 KiB. The
// sim-verify exploration learns about a thousand histories.
const (
	learnMin = 1 << 10
	learnCap = 1 << 14
)

func newLearnTable() *learnTable {
	t := &learnTable{}
	t.resize(learnMin)
	return t
}

// resize rehashes the table into n slots, a power of two.
func (t *learnTable) resize(n int) {
	old := t.slots
	t.slots, t.mask, t.limit = make([]learnSlot, n), uint64(n-1), n-n/8
	for _, sl := range old {
		if sl.key != 0 {
			i := sl.key >> 4 & t.mask
			for t.slots[i].key != 0 {
				i = (i + 1) & t.mask
			}
			t.slots[i] = sl
		}
	}
}

// learnKey hashes (pid, h) to a slot key with its learn bits clear.
func learnKey(pid int, h uint64) uint64 {
	k := mix(h, uint64(pid)+0x51ed27) &^ learnBits
	if k == 0 {
		k = learnBits + 1
	}
	return k
}

// note records what followed the operation ending pid's history h: next,
// the operation pid parked on and the pids it signalled. A key seen with
// two different successors is unpredictable from then on.
func (t *learnTable) note(pid int, h, next uint64, parked pendingOp, sig uint64) {
	k := learnKey(pid, h)
	for i := k >> 4 & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		switch {
		case sl.key == 0:
			if t.used == t.limit {
				if len(t.slots) == learnCap {
					return
				}
				t.resize(2 * len(t.slots))
				t.note(pid, h, next, parked, sig)
				return
			}
			*sl = learnSlot{key: k | next, parked: parked, sig: sig}
			t.used++
			return
		case sl.key&^learnBits == k:
			if sl.key&learnBits != next || sl.parked != parked || sl.sig != sig {
				*sl = learnSlot{key: k | learnUnpredictable}
			}
			return
		}
	}
}

// next returns the slot of what followed the operation ending pid's
// history h; its key is 0 if that was never learned.
func (t *learnTable) next(pid int, h uint64) learnSlot {
	k := learnKey(pid, h)
	for i := k >> 4 & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.key == 0 || sl.key&^learnBits == k {
			return *sl
		}
	}
}

// class returns what a slot says followed the operation: its learn bits.
func (sl *learnSlot) class() uint64 { return sl.key & learnBits }

// stepRow writes to dst the row the replay records at the free pick after
// the one src describes when it grants process pid there: pid runs its
// pending operation — for a process not started yet, the one it starts
// with — then sets the abort flags it learned to set, and parks on its
// next operation or exits. It returns the operation's footprint, or why
// the step cannot be told without running it: pid waits without an
// operation, what follows its launch or its operation is not learned as
// parking or exiting, or pid declares PhaseCS while another process holds
// the critical section, which fails the run.
func (v *visState) stepRow(dst, src *predRow, pid int) (stepAccess, replayCause) {
	bit := uint64(1) << uint(pid)
	ab := src.ab
	op, ctl := src.pend[pid], src.ctl[pid]
	if src.fresh&bit != 0 {
		ctl = launchCtl(ab&bit != 0)
		l := v.learn.next(pid, ctl)
		if !follows(l.class(), learnParks, pid, src.hold) {
			return unknownAccess, missed(l.class())
		}
		op, ab = l.parked, ab|l.sig
	}
	aborted := ab&bit != 0
	a := int(op.addr)
	if op.op == 0 || a < 0 || 2*a >= len(src.mem) {
		return unknownAccess, causeUnpredictable
	}
	// The DSM owner decides only whether the step is an RMR, which the
	// fingerprint does not cover.
	w := word{val: src.mem[2*a], cached: cacheSet{inline: src.mem[2*a+1]}}
	res, _, _ := apply(&w, pid, src.model, op.op, op.cmp, op.arg)
	if au := v.audit; au != nil && au.perturb != nil {
		res = au.perturb(op.op, res)
	}
	ctl = ctlFold(ctl, op.op, op.addr, res, aborted)
	l := v.learn.next(pid, ctl)
	next := l.class()
	if !follows(next, learnParks, pid, src.hold) && !follows(next, learnExits, pid, src.hold) {
		return unknownAccess, missed(next)
	}
	h := histFold(src.hist[pid], op.addr, res, aborted)
	dst.mem = append(dst.mem[:0], src.mem...)
	dst.mem[2*a], dst.mem[2*a+1] = w.val, w.cached.inline
	dst.hist = append(dst.hist[:0], src.hist...)
	dst.hist[pid] = h
	// The step changes the word, its coherence set and pid's history: swap
	// their terms of the state sum.
	dst.sum = src.sum + memTerm(2*a, w.val) - memTerm(2*a, src.mem[2*a]) +
		memTerm(2*a+1, w.cached.inline) - memTerm(2*a+1, src.mem[2*a+1]) +
		histTerm(pid, h) - histTerm(pid, src.hist[pid])
	dst.ctl = append(dst.ctl[:0], src.ctl...)
	dst.ctl[pid] = ctl
	copy(dst.pend, src.pend)
	dst.ab, dst.wm, dst.granted, dst.fresh, dst.model = ab|l.sig, src.wm, src.granted, src.fresh&^bit, src.model
	if v.sym {
		dst.granted |= bit
	}
	switch dst.hold = src.hold; {
	case next&learnHolds != 0:
		dst.hold = pid
	case src.hold == pid:
		dst.hold = -1
	}
	if next&^(learnCS|learnHolds) == learnParks {
		dst.pend[pid] = l.parked
	} else {
		dst.pend[pid] = pendingOp{}
		dst.wm &^= bit
	}
	return stepAccess{addr: op.addr, mut: op.op != OpRead}, causeNone
}

// missed returns why a step whose learned continuation next is neither
// parking nor exiting, or declares PhaseCS against the holder, cannot be
// told.
func missed(next uint64) replayCause {
	if next == 0 {
		return causeUnlearned
	}
	return causeUnpredictable
}

// follows reports whether the learned continuation next is of the class
// want, and pid, if it declares PhaseCS on the way, passes the Scheduler's
// mutual-exclusion check against hold, the process holding the critical
// section (-1 for none). Only one process runs during a step, so that
// holder is the only one the check can meet.
func follows(next, want uint64, pid, hold int) bool {
	if next&learnCS != 0 && hold >= 0 && hold != pid {
		return false
	}
	return next&^(learnCS|learnHolds) == want
}

// predict sets whether task t, which branches off the replay just made at
// depth d with choice c, carries a prediction: the row S1 its replay
// records at its first free pick, stepped from depth d's. It carries none
// when that step cannot be told, or when the sibling's run completes with
// it, since a completed run's verdict needs the replay.
func (r *recorder) predict(t *exTask, d, c int) {
	v := &r.vis
	row := &v.rows[d]
	wm := row.wm
	for i := 0; i < c; i++ {
		wm &= wm - 1
	}
	if wm == 0 {
		return // no fingerprint was taken at depth d
	}
	if t.first == nil {
		t.first = &predRow{pend: make([]pendingOp, v.nprocs)}
	}
	_, why := v.stepRow(t.first, row, bits.TrailingZeros64(wm))
	t.pred = why == causeNone && t.first.wm != 0
}

// walk tells, without running it, what the replay of the predicted task t
// counts, and the length of its choice sequence; outUnknown means that t
// must be replayed, for the reason walk returns with it. From S1 on it does at each free pick what reducedPick
// does — the per-depth snapshots, the fingerprint, the pick, the
// wake-up of the sleepers the granted step conflicts with — and steps the
// row by the grant. With commit, a told outcome records the states that
// replay records as visited; a state another worker recorded since the
// lookup cuts the walk there, as it would have cut the replay. The
// recorder is then left as the replay leaves it: the choices taken and,
// at every free depth, the snapshots siblings reads, the row and the
// step's footprint. Without commit (the check mode) nothing outside the
// recorder changes.
func (r *recorder) walk(t *exTask, commit bool) (outcome, int, replayCause) {
	v, p := &r.vis, &r.por
	d := len(t.prefix)
	r.prefix = t.prefix
	r.taken = append(r.taken[:0], t.prefix...)
	r.width = append(r.width[:0], t.prefix...) // widths above the free part are not read
	v.row(d)
	v.rows[d], *t.first = *t.first, v.rows[d]
	sleep := t.mask
	var o outcome
	D := d
	for {
		next := v.row(D + 1)
		row := &v.rows[D]
		if row.wm == 0 {
			return outUnknown, D, causeCompletes // its verdict needs the replay
		}
		if D >= v.maxSteps {
			o = outPruned
			break
		}
		r.notePick(D, row.wm, row.granted, sleep)
		row.key = fpKey(fingerprint(D, sleep, row.granted, row.wm, row.ab, row.sum, nil))
		if v.set.has(row.key) {
			o = outVisited
			break
		}
		c, pid, symHit := v.firstFree(row.wm, sleep, row.granted)
		if pid < 0 {
			o = outEquivalent
			if symHit {
				o = outSymmetry
			}
			break
		}
		acc, why := v.stepRow(next, row, pid)
		if why != causeNone {
			return outUnknown, D, why
		}
		r.taken = append(r.taken, c)
		r.width = append(r.width, bits.OnesCount64(row.wm))
		if p.on {
			p.acc[D] = acc
			sleep = wake(sleep, t.pend, acc)
		}
		D++
	}
	if commit {
		last := D // the replay records every state it picks at, and a blocked one too
		if o == outEquivalent || o == outSymmetry {
			last++
		}
		for j := d; j < last; j++ {
			if v.set.seen(v.rows[j].key) {
				o, D = outVisited, j
				r.taken, r.width = r.taken[:j], r.width[:j]
				break
			}
		}
	}
	return o, D, causeNone
}

// notePick writes the per-depth snapshots a free pick at depth D leaves
// for siblings: the waiting pids by choice index, the sleep set and the
// granted mask. Forced depths take none: siblings reads free ones only.
func (r *recorder) notePick(D int, wm, granted, sleep uint64) {
	p, v := &r.por, &r.vis
	var pidAt []int32
	if p.on {
		r.ensureDepth(D)
		pidAt = p.pidAt[D*p.nprocs:]
		p.sleepAt[D] = sleep
	}
	if v.sym {
		v.ensureDepth(D, !p.on)
		v.grantedAt[D] = granted
		if !p.on {
			pidAt = v.pidAt[D*v.nprocs:]
		}
	}
	for i, q := 0, wm; pidAt != nil && q != 0; i, q = i+1, q&(q-1) {
		pidAt[i] = int32(bits.TrailingZeros64(q))
	}
}

// firstFree returns the choice index and the pid a free pick grants over
// the waiting set wm: the first waiting process neither in the sleep set
// nor symmetry-blocked under the granted mask g. When there is none, pid
// is -1 and sym reports whether a symmetry block took part in the cut.
func (v *visState) firstFree(wm, sleep, g uint64) (c, pid int, sym bool) {
	for q := wm; q != 0; q &= q - 1 {
		p := bits.TrailingZeros64(q)
		switch {
		case sleep&(1<<uint(p)) != 0:
		case v.sym && v.symBlocked(p, g, wm):
			sym = true
		default:
			return c, p, false
		}
		c++
	}
	return -1, -1, sym
}

// predictAudit is the prediction's check mode, reachable only from tests
// (export_test.go): every predicted task is walked without commit and
// replayed anyway. Step by step below the branch, the check compares each
// state the walk reached with the one the replay fingerprinted there (row
// and key), its state sum with one recomputed from its memory and
// histories, and the choice and footprint of the step into it; where the
// walk tells the outcome, it also compares the replay's outcome, depth
// and sibling subtrees. Each step is counted once, in its bucket, and the
// first disagreement ends a task's check. perturb, when set, alters each
// predicted operation result: a deliberately wrong predictor the check
// must catch.
type predictAudit struct {
	checked, mismatched [auditSteps]atomic.Int64 // by steps below the branch; the last bucket holds every deeper one
	launches            atomic.Int64             // checked steps that launched a process not started yet
	signals             atomic.Int64             // checked steps that set abort flags
	perturb             func(op Op, res uint64) uint64
}

// auditSteps is the number of predictAudit's buckets.
const auditSteps = 8

// walked is what a walk told, kept by the check mode for the replay.
type walked struct {
	o     outcome
	depth int
	taken []int
	rows  []predRow    // from the first free pick to the depth the walk ended at
	acc   []stepAccess // footprint of each step taken below the branch, under sleep sets
	sibs  []exTask     // the sibling subtrees the walk would push, when it tells the outcome
}

// walk walks task t without commit and keeps what it told.
func (au *predictAudit) walk(r *recorder, t *exTask) *walked {
	o, D, _ := r.walk(t, false)
	d := len(t.prefix)
	w := &walked{o: o, depth: D, taken: slices.Clone(r.taken)}
	for _, row := range r.vis.rows[d : D+1] {
		row.mem, row.hist, row.ctl, row.pend = slices.Clone(row.mem), slices.Clone(row.hist), slices.Clone(row.ctl), slices.Clone(row.pend)
		w.rows = append(w.rows, row)
	}
	if r.por.on {
		w.acc = slices.Clone(r.por.acc[d:len(r.taken)])
	}
	if o != outUnknown {
		w.sibs, _ = r.siblings(*t, nil, nil, 0)
	}
	return w
}

// compare checks the walk w of task t against t's replay, which the
// recorder now holds and which counted o. A replay cut at a state the
// walk found unvisited, which another worker recorded in between, agrees
// as far as it went.
func (au *predictAudit) compare(r *recorder, t *exTask, w *walked, o outcome) {
	v := &r.vis
	d := len(t.prefix)
	rows := len(r.taken) // the replay fingerprinted every pick it made, and the one it was cut at
	if o != outExplored && o != outPruned {
		rows++
	}
	for j := range w.rows {
		D := d + j
		ok := j == 0 || D-1 < len(r.taken) && r.taken[D-1] == w.taken[D-1] && (!r.por.on || r.por.acc[D-1] == w.acc[j-1])
		ok = ok && w.rows[j].sum == stateSum(w.rows[j].mem, w.rows[j].hist) // the incremental sum is the full one
		switch {
		case w.o == outPruned && D == w.depth:
			// The bound state is never fingerprinted: compare the
			// histories the replay ended with.
			ok = ok && slices.Equal(w.rows[j].hist, v.s.hist)
		case D < rows:
			ok = ok && w.rows[j].key == v.rows[D].key && sameRow(&w.rows[j], &v.rows[D])
		default:
			ok = ok && w.o == outUnknown && D == w.depth && len(r.taken) == D // a completion left to the replay
		}
		raced := o == outVisited && D == len(r.taken) && (D < w.depth || w.o != outVisited)
		if D == w.depth && w.o != outUnknown && !raced {
			sibs, _ := r.siblings(*t, nil, nil, 0)
			ok = ok && o == w.o && len(r.taken) == D && sameTasks(w.sibs, sibs)
		}
		step := min(j+1, auditSteps-1)
		au.checked[step].Add(1)
		if !ok {
			au.mismatched[step].Add(1)
			return
		}
		if j > 0 && w.rows[j-1].fresh != w.rows[j].fresh {
			au.launches.Add(1)
		}
		if j > 0 && w.rows[j-1].ab != w.rows[j].ab {
			au.signals.Add(1)
		}
		if raced {
			return
		}
	}
}

// sameRow reports whether two rows hold the same fingerprint inputs and
// control state.
func sameRow(a, b *predRow) bool {
	return a.ab == b.ab && a.wm == b.wm && a.granted == b.granted && a.fresh == b.fresh && a.hold == b.hold && a.sum == b.sum &&
		slices.Equal(a.mem, b.mem) && slices.Equal(a.hist, b.hist) &&
		slices.Equal(a.ctl, b.ctl) && slices.Equal(a.pend, b.pend)
}

// sameTasks reports whether two sibling lists hold the same subtrees: the
// prefixes, the sleep sets with their sleepers' footprints, and the
// predictions.
func sameTasks(a, b []exTask) bool {
	return slices.EqualFunc(a, b, func(x, y exTask) bool {
		if !slices.Equal(x.prefix, y.prefix) || x.mask != y.mask || x.pred != y.pred {
			return false
		}
		for q := x.mask; q != 0; q &= q - 1 {
			if s := bits.TrailingZeros64(q); x.pend[s] != y.pend[s] {
				return false
			}
		}
		return !x.pred || sameRow(x.first, y.first)
	})
}

// waitMask returns the waiting set as a pid mask.
func waitMask(waiting []int) uint64 {
	var wm uint64
	for _, pid := range waiting {
		wm |= 1 << uint(pid)
	}
	return wm
}

// forced takes the prefix's choice at a forced step.
func (r *recorder) forced(step int, waiting []int) int {
	choice := r.prefix[step]
	if choice >= len(waiting) {
		panic(badPrefix(step, choice, len(waiting)))
	}
	r.record(choice, waiting)
	return choice
}

// record logs a taken choice and updates the granted mask.
func (r *recorder) record(choice int, waiting []int) {
	r.taken = append(r.taken, choice)
	r.width = append(r.width, len(waiting))
	if r.vis.sym {
		r.vis.granted |= 1 << uint(waiting[choice])
	}
}

// pidOf returns the pid of the choice-c sibling at depth d, from whichever
// per-depth snapshot is maintained.
func (r *recorder) pidOf(d, c int) int {
	if r.por.on {
		return int(r.por.pidAt[d*r.por.nprocs+c])
	}
	return int(r.vis.pidAt[d*r.vis.nprocs+c])
}

// skipSibling reports whether the choice-c sibling subtree at depth d must
// not be explored: a sleep-set member or a symmetry-non-canonical grant.
func (r *recorder) skipSibling(d, c int) bool {
	if r.por.on && r.asleep(d, c) {
		return true
	}
	v := &r.vis
	if v.sym {
		var wm uint64
		for i := 0; i < r.width[d]; i++ {
			wm |= 1 << uint(r.pidOf(d, i))
		}
		if v.symBlocked(r.pidOf(d, c), v.grantedAt[d], wm) {
			return true
		}
	}
	return false
}
