package rmr

import (
	"errors"
	"math/bits"
	"slices"
	"sort"
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

// visitedSet is a lock-free, fixed-capacity open-addressing table of
// 64-bit state fingerprints. Slots hold the fingerprint directly; 0 is the
// empty-slot sentinel (fingerprint 0 is remapped on entry). Insertion is a
// CAS per probed slot and the table never evicts: eviction would make cut
// decisions depend on arrival order, destroying the deterministic counts.
// When the load limit is reached the table saturates — lookups still hit
// recorded keys, but new states are no longer recorded and determinism
// across worker counts is lost; Result.VisitedSaturated reports it.
type visitedSet struct {
	mask  uint64
	slots []atomic.Uint64
	used  atomic.Int64
	limit int64
	sat   atomic.Bool
}

// newVisitedSet sizes the table to at least entries slots, rounded up to a
// power of two. The insertion limit leaves 1/8 of the slots empty so probe
// chains terminate.
func newVisitedSet(entries int) *visitedSet {
	n := 1
	for n < entries {
		n <<= 1
	}
	vs := &visitedSet{mask: uint64(n - 1), slots: make([]atomic.Uint64, n)}
	vs.limit = int64(n) - int64(n)/8
	if vs.limit < 1 {
		vs.limit = 1
	}
	return vs
}

// defaultVisitedCap is the explorer's visited-set capacity: 1<<20
// fingerprints (8 MiB).
const defaultVisitedCap = 1 << 20

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
			if vs.used.Load() >= vs.limit {
				vs.sat.Store(true)
				return false
			}
			if vs.slots[i].CompareAndSwap(0, fp) {
				vs.used.Add(1)
				return false
			}
			continue // re-examine the slot a racer just filled
		}
		i = (i + 1) & vs.mask
	}
}

// dump returns the recorded fingerprints in ascending order — a canonical
// serialization for checkpoints. It must only be called at quiescence (no
// concurrent inserts).
func (vs *visitedSet) dump() []uint64 {
	var out []uint64
	for i := range vs.slots {
		if fp := vs.slots[i].Load(); fp != 0 {
			out = append(out, fp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// load re-inserts a dumped fingerprint list (checkpoint resume).
func (vs *visitedSet) load(fps []uint64) {
	for _, fp := range fps {
		vs.seen(fp)
	}
}

// mix folds v into the running hash h with a splitmix64-style finalizer.
// The visited set stores only these 64-bit digests (hash compaction), so a
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

	// Replay prediction (see predict). rows[d] holds the fingerprint
	// inputs of the free pick at depth d of the current replay; scratch is
	// secondKey's. firstAt and fps record the depth and the keys of the
	// replay's first two fingerprints, which the check mode compares with
	// the task's prediction.
	pred     bool
	rows     []predRow
	scratch  predRow
	learn    *learnTable
	model    Model
	maxSteps int
	firstAt  int
	fps      [2]uint64
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
func (v *visState) seen(depth int, sleepMask uint64, waiting []int) bool {
	s := v.s
	m := s.mem
	row := v.row(depth)
	row.wm = 0 // an empty waiting set: predict reads nothing else
	if m == nil {
		return false // ungated body: nothing to fingerprint (see Body contract)
	}
	for _, pid := range waiting {
		row.wm |= 1 << uint(pid)
	}
	row.ab = 0
	for i := range m.procs {
		if m.procs[i].abort && i < 64 {
			row.ab |= 1 << uint(i)
		}
	}
	row.granted = v.granted // symmetry decisions below the node depend on it
	row.mem = m.snapshot(row.mem[:0])
	row.hist = append(row.hist[:0], s.hist...)
	if s.pend != nil {
		row.ctl = append(row.ctl[:0], s.ctl...)
		clear(row.pend)
		for _, pid := range waiting {
			if s.deferred[pid] == nil { // started, so parked on a known op
				row.pend[pid] = s.pend[pid]
			}
		}
	}
	v.model = m.model
	var ops []int32
	if f := s.fs; f != nil {
		ops = f.ops
	}
	h := fpKey(fingerprint(depth, sleepMask, row.granted, row.wm, row.mem, row.ab, row.hist, ops))
	if v.firstAt < 0 {
		v.firstAt, v.fps[0] = depth, h
	} else if depth == v.firstAt+1 {
		v.fps[1] = h
	}
	return v.set.seen(h)
}

// fingerprint hashes a quiescent state's inputs (see seen): the depth, the
// sleep, granted and waiting masks, the memory snapshot, the abort flags,
// the observation histories and, under a fault plan, the operation-attempt
// counts.
func fingerprint(depth int, sleep, granted, wm uint64, mem []uint64, ab uint64, hist []uint64, ops []int32) uint64 {
	h := mix(0x8c9da6b1f8d3a7e5, uint64(depth))
	h = mix(h, sleep)
	h = mix(h, granted)
	h = mix(h, wm)
	for _, x := range mem {
		h = mix(h, x)
	}
	h = mix(h, ab)
	for _, x := range hist {
		h = mix(h, x)
	}
	for _, op := range ops {
		h = mix(h, uint64(uint32(op)))
	}
	return h
}

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

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Replay prediction. Most replays the explorer cuts end within two steps
// of the choice that branched them off their parent — at a visited hit at
// their first free pick or at their second, or, when that choice is the
// last step the bound allows, at the bound — after replaying the whole
// forced prefix to reach a state the parent replay nearly knows. At each
// free pick seen keeps the state's fingerprint inputs in the depth's row,
// the waiting processes' pending operations included. So for each sibling
// it pushes, the explorer steps that row (stepRow): it applies the
// sibling's branch operation to it (apply, the memory model's one copy)
// and the stepping process's learned continuation, which gives the row S1
// the sibling's replay records at depth d+1. The task carries S1. When d+1
// is the step bound, the replay is a prune there. Otherwise the task
// carries S1's key too, and at dequeue a lookup of it stands in for the
// replay if it hits. If it misses, the explorer steps S1 by the pick the
// replay makes there (secondKey) and looks up the state S2 at depth d+2;
// a hit stands in for the replay as well, and the explorer does what that
// replay would have done: it records S1 as visited and pushes S1's
// siblings from S1's row (adoptSecond). Each prediction is counted exactly
// like the replay it stands in for, and anything else is replayed as
// before, so a prediction never changes a count.
//
// What a process does after its operation is not in the row. The body is
// deterministic, so a process's control state is a function of its
// history — the contract visited caching rests on — and the learn table
// records, at every gate arrival and process exit, what followed the
// operation that ends the process's control history (ctlFold): it parks
// again, on a given operation, or exits. It marks the history
// unpredictable if state the fingerprint covers changed after the
// operation (Memory.epoch: abort signals, allocation), so the signal
// process, whose step is followed by SignalAbort, is never predicted. It
// also flags a continuation that declared PhaseCS, and the predictor never
// steps through one: no replay reached the state after a predicted
// prune's step, or S1 of a second-pick hit, so none ran the Scheduler's
// mutual-exclusion check on the step into it. A state that is truly a
// visited hit was reached before with the same history for the stepping
// process, which then parked or exited, so its successor was learned then
// — by the same worker at Workers 1.
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
// the current replay, and the control histories the learn table is keyed
// by.
type predRow struct {
	mem             []uint64    // each word's value and inline coherence set (Memory.snapshot)
	hist            []uint64    // observation history, by pid
	ctl             []uint64    // control history, by pid (ctlFold)
	pend            []pendingOp // pending operation of each started waiting pid, by pid
	ab, wm, granted uint64      // abort flags, waiting set, symmetry's granted mask
}

// newPredRow returns an empty row for nprocs processes.
func newPredRow(nprocs int) predRow { return predRow{pend: make([]pendingOp, nprocs)} }

// row returns the depth's row, growing the table as needed.
func (v *visState) row(depth int) *predRow {
	for len(v.rows) <= depth {
		v.rows = append(v.rows, newPredRow(v.nprocs))
	}
	return &v.rows[depth]
}

// What follows an operation, as the learn table records it: a class, and
// the learnCS flag when the process declared PhaseCS before it parked or
// exited.
const (
	learnParks         = 1 + iota // the process waits at the gate again
	learnExits                    // the process returns
	learnUnpredictable            // fingerprinted state changed after the operation

	learnCS = 4
)

// learnTable maps (pid, control history) to what the process did after
// the operation that ends the history. A slot's key holds a 61-bit hash
// of the key above what followed (class and learnCS flag, the low three
// bits); 0 is the empty slot. A slot also holds the operation the process
// parked on. A learn table belongs to one worker, so it needs no atomics.
// It has a fixed capacity and saturates: once full it stops recording,
// which only costs predictions.
type learnTable struct {
	slots       []learnSlot
	mask        uint64
	used, limit int
}

type learnSlot struct {
	key    uint64
	parked pendingOp
}

// learnCap is the learn table's slot count: 16 Ki slots of 40 bytes,
// 640 KiB. The sim-verify exploration learns about a thousand histories.
const learnCap = 1 << 14

func newLearnTable() *learnTable {
	return &learnTable{slots: make([]learnSlot, learnCap), mask: learnCap - 1, limit: learnCap - learnCap/8}
}

// learnKey hashes (pid, h) to a slot key with its low three bits clear.
func learnKey(pid int, h uint64) uint64 {
	k := mix(h, uint64(pid)+0x51ed27) &^ 7
	if k == 0 {
		k = 8
	}
	return k
}

// note records what followed the operation ending pid's history h: next,
// and the operation pid parked on. A key seen with two different
// successors is unpredictable from then on.
func (t *learnTable) note(pid int, h, next uint64, parked pendingOp) {
	k := learnKey(pid, h)
	for i := k >> 3 & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		switch {
		case sl.key == 0:
			if t.used < t.limit {
				*sl = learnSlot{key: k | next, parked: parked}
				t.used++
			}
			return
		case sl.key&^7 == k:
			if sl.key&7 != next || sl.parked != parked {
				*sl = learnSlot{key: k | learnUnpredictable}
			}
			return
		}
	}
}

// next returns what followed the operation ending pid's history h — 0 if
// it was never learned — and the operation pid parked on.
func (t *learnTable) next(pid int, h uint64) (uint64, pendingOp) {
	k := learnKey(pid, h)
	for i := k >> 3 & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		switch {
		case sl.key == 0:
			return 0, pendingOp{}
		case sl.key&^7 == k:
			return sl.key & 7, sl.parked
		}
	}
}

// stepRow writes to dst the row the replay records at the free pick after
// the one src describes when it grants process pid there: pid runs its
// pending operation, then parks on its next one or exits. It returns the
// operation's footprint, and false when the step cannot be told without
// running it: pid has not started or waits without an operation, or what
// follows the operation is not learned as parking or exiting without a
// PhaseCS declaration.
func (v *visState) stepRow(dst, src *predRow, pid int) (stepAccess, bool) {
	op := src.pend[pid]
	a := int(op.addr)
	if op.op == 0 || a < 0 || 2*a >= len(src.mem) {
		return unknownAccess, false
	}
	// The DSM owner decides only whether the step is an RMR, which the
	// fingerprint does not cover.
	w := word{val: src.mem[2*a], cached: cacheSet{inline: src.mem[2*a+1]}}
	res, _, _ := apply(&w, pid, v.model, op.op, op.cmp, op.arg)
	if au := v.audit; au != nil && au.perturb != nil {
		res = au.perturb(op.op, res)
	}
	aborted := src.ab&(1<<uint(pid)) != 0
	ctl := ctlFold(src.ctl[pid], op.op, op.addr, res, aborted)
	next, parked := v.learn.next(pid, ctl)
	if next != learnParks && next != learnExits {
		return unknownAccess, false
	}
	dst.mem = append(dst.mem[:0], src.mem...)
	dst.mem[2*a], dst.mem[2*a+1] = w.val, w.cached.inline
	dst.hist = append(dst.hist[:0], src.hist...)
	dst.hist[pid] = histFold(src.hist[pid], op.addr, res, aborted)
	dst.ctl = append(dst.ctl[:0], src.ctl...)
	dst.ctl[pid] = ctl
	copy(dst.pend, src.pend)
	dst.ab, dst.wm, dst.granted = src.ab, src.wm, src.granted
	if v.sym {
		dst.granted |= 1 << uint(pid)
	}
	if next == learnParks {
		dst.pend[pid] = parked
	} else {
		dst.pend[pid] = pendingOp{}
		dst.wm &^= 1 << uint(pid)
	}
	return stepAccess{addr: op.addr, mut: op.op != OpRead}, true
}

// What a task's prediction says its replay does (exTask.kind).
type predKind uint8

const (
	predNone  predKind = iota // nothing: the task is replayed
	predFirst                 // fp is its first free pick's key; at.row the state there
	predLeaf                  // the step bound stops it right after its branch step
)

// The prediction kinds the Monitor and the check mode count.
const (
	kindFirst  = iota // a visited hit at the first free pick
	kindSecond        // a visited hit at the second free pick
	kindLeaf          // a prune at the step bound
	numKinds
)

// firstPick is what a predicted task's replay records and does at its
// first free pick: the row S1 and — once secondKey has stepped S1 — the
// choice it takes there and that step's footprint.
type firstPick struct {
	row    predRow
	choice int
	acc    stepAccess
}

// predict sets the prediction of task t, which branches off the replay
// just made at depth d with choice c under sleep set sleep. If the row
// t's replay records at depth d+1 can be stepped to from depth d's, t
// carries it: as a predicted prune when d+1 is the step bound and some
// process still waits, and otherwise with its visited key (predFirst).
func (r *recorder) predict(t *exTask, d, c int, sleep uint64) {
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
		t.first = &firstPick{row: newPredRow(v.nprocs)}
	}
	s1 := &t.first.row
	if _, ok := v.stepRow(s1, row, bits.TrailingZeros64(wm)); !ok || s1.wm == 0 {
		return // unknown, or the sibling's run completes: no pick follows
	}
	if d+1 >= v.maxSteps {
		// The bound ends the run before it picks again. The check mode
		// compares the histories (histKey).
		t.kind, t.fp = predLeaf, histKey(s1.hist)
		return
	}
	t.kind, t.fp = predFirst, fpKey(fingerprint(d+1, sleep, s1.granted, s1.wm, s1.mem, s1.ab, s1.hist, nil))
}

// histKey hashes every process's observation history: what the check
// mode compares for a predicted prune, whose state is never fingerprinted.
func histKey(hist []uint64) uint64 {
	h := uint64(0x3c6ef372fe94f82b)
	for _, x := range hist {
		h = mix(h, x)
	}
	return fpKey(h)
}

// secondKey returns the visited key the replay of the predFirst task t
// looks up at its second free pick, one step below its first — or 0 when
// that cannot be told without running it. At the first, the replay grants
// the first waiting process that is neither in t's sleep set, which it
// installs there, nor symmetry-blocked; secondKey steps S1 by that grant
// (stepRow), wakes the sleepers the operation conflicts with, as porPick
// does, and keeps the choice and its footprint in t.first for adoptSecond.
func (r *recorder) secondKey(t *exTask) uint64 {
	v := &r.vis
	d := len(t.prefix)
	if t.kind != predFirst || d+1 >= v.maxSteps {
		return 0 // the bound leaves no pick at depth d+1
	}
	s1 := &t.first.row
	c, pid := 0, -1
	for q := s1.wm; q != 0; q &= q - 1 {
		p := bits.TrailingZeros64(q)
		if t.mask&(1<<uint(p)) == 0 && !(v.sym && v.symBlocked(p, s1.granted, s1.wm)) {
			pid = p
			break
		}
		c++
	}
	if pid < 0 {
		return 0 // the replay is cut at its first free pick
	}
	s2 := &v.scratch
	acc, ok := v.stepRow(s2, s1, pid)
	if !ok || s2.wm == 0 {
		return 0
	}
	sleep := t.mask
	for q := sleep; q != 0; q &= q - 1 {
		if p := bits.TrailingZeros64(q); dependent(t.pend[p], acc) {
			sleep &^= 1 << uint(p)
		}
	}
	t.first.choice, t.first.acc = c, acc
	return fpKey(fingerprint(d+1, sleep, s2.granted, s2.wm, s2.mem, s2.ab, s2.hist, nil))
}

// adoptSecond leaves the recorder as the replay of task t leaves it when
// it is cut at its second free pick — the choices taken, and at the first
// free pick its width, its waiting pids, sleep set, granted mask, row and
// the footprint of the step taken — so that siblings pushes what that
// replay would push. It hands t's row S1 to the recorder, and the row it
// replaces to t. Depths above the first free pick are not read by
// siblings and keep their state.
func (r *recorder) adoptSecond(t exTask) {
	d := len(t.prefix)
	at := t.first
	wm := at.row.wm
	r.prefix = t.prefix
	r.taken = append(append(r.taken[:0], t.prefix...), at.choice)
	r.width = r.width[:0]
	for range d {
		r.width = append(r.width, 0) // not read
	}
	r.width = append(r.width, bits.OnesCount64(wm))
	v := &r.vis
	var pidAt []int32
	if r.por.on {
		p := &r.por
		r.ensureDepth(d)
		pidAt = p.pidAt[d*p.nprocs:]
		p.sleepAt[d] = t.mask
		p.acc[d] = at.acc
	}
	if v.sym {
		v.ensureDepth(d, !r.por.on)
		v.grantedAt[d] = at.row.granted
		if !r.por.on {
			pidAt = v.pidAt[d*v.nprocs:]
		}
	}
	if pidAt != nil {
		for i, q := 0, wm; q != 0; i, q = i+1, q&(q-1) {
			pidAt[i] = int32(bits.TrailingZeros64(q))
		}
	}
	v.row(d)
	v.rows[d], at.row = at.row, v.rows[d]
}

// predictAudit is the prediction's check mode, reachable only from tests
// (export_test.go): every predicted task is replayed anyway and compared
// with its prediction, by kind (kindFirst, kindSecond, kindLeaf). perturb,
// when set, alters each predicted operation result: a deliberately wrong
// predictor the check must catch.
type predictAudit struct {
	checked, mismatched [numKinds]atomic.Int64
	perturb             func(op Op, res uint64) uint64
}

// note counts one checked prediction of the kind.
func (au *predictAudit) note(kind int, ok bool) {
	au.checked[kind].Add(1)
	if !ok {
		au.mismatched[kind].Add(1)
	}
}

// check audits the replay of the predicted task t, which ended with
// runErr. hit[0] says whether the visited set held t's first key at
// dequeue; k2 is secondKey's key (0 for none) and hit[1] whether the set
// held it. A first-pick prediction must match the replay's first
// fingerprint (depth and key) and, for a hit, its cut; a second-pick one
// its second fingerprint, its choice, its row and footprint at the first
// free pick, and, for a hit, its cut; a prune must be one, at the bound,
// with the predicted histories.
func (au *predictAudit) check(r *recorder, t *exTask, runErr error, hit [2]bool, k2 uint64) {
	v := &r.vis
	d := len(t.prefix)
	if t.kind == predLeaf {
		pruned := errors.Is(runErr, ErrStepLimit) && !v.vcut && !v.scut && !r.por.cut
		au.note(kindLeaf, pruned && v.firstAt < 0 && len(r.taken) == d && histKey(v.s.hist) == t.fp)
		return
	}
	au.note(kindFirst, v.firstAt == d && v.fps[0] == t.fp && (!hit[0] || v.vcut && len(r.taken) == d))
	if k2 == 0 || hit[0] || v.vcut && len(r.taken) == d {
		return // no second pick to compare: with racing workers, S1 can turn visited after the lookup
	}
	ok := v.fps[1] == k2 && len(r.taken) > d && r.taken[d] == t.first.choice &&
		(!hit[1] || v.vcut && len(r.taken) == d+1) && sameRow(&v.rows[d], &t.first.row)
	if r.por.on {
		ok = ok && r.por.acc[d] == t.first.acc
	}
	au.note(kindSecond, ok)
}

// sameRow reports whether two rows hold the same fingerprint inputs and
// control state.
func sameRow(a, b *predRow) bool {
	return a.ab == b.ab && a.wm == b.wm && a.granted == b.granted &&
		slices.Equal(a.mem, b.mem) && slices.Equal(a.hist, b.hist) &&
		slices.Equal(a.ctl, b.ctl) && slices.Equal(a.pend, b.pend)
}

// visPick is the extended PickFunc body for explorations running visited
// caching or symmetry without sleep sets; porPick integrates the same
// checks when sleep sets are on.
func (r *recorder) visPick(step int, waiting []int) int {
	v := &r.vis
	if v.sym {
		v.ensureDepth(step, true)
		base := step * v.nprocs
		for i, pid := range waiting {
			v.pidAt[base+i] = int32(pid)
		}
		v.grantedAt[step] = v.granted
	}
	if step < len(r.prefix) {
		choice := r.prefix[step]
		if choice >= len(waiting) {
			panic(badPrefix(step, choice, len(waiting)))
		}
		r.record(choice, waiting)
		return choice
	}
	if v.on && v.seen(step, 0, waiting) {
		v.vcut = true
		return -1
	}
	var wm uint64
	if v.sym {
		for _, pid := range waiting {
			wm |= 1 << uint(pid)
		}
	}
	symHit := false
	for i, pid := range waiting {
		if v.sym && v.symBlocked(pid, v.granted, wm) {
			symHit = true
			continue
		}
		r.record(i, waiting)
		return i
	}
	v.scut = symHit
	return -1
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
