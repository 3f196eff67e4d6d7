package rmr

import (
	"math/bits"
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

// seen reports whether fp was already recorded, recording it if not (and
// if the table has room).
func (vs *visitedSet) seen(fp uint64) bool {
	if fp == 0 {
		fp = 0x9e3779b97f4a7c15 // 0 is the empty-slot sentinel
	}
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
func (v *visState) seen(depth int, sleepMask uint64, waiting []int) bool {
	s := v.s
	m := s.mem
	if m == nil {
		return false // ungated body: nothing to fingerprint (see Body contract)
	}
	h := mix(0x8c9da6b1f8d3a7e5, uint64(depth))
	h = mix(h, sleepMask)
	h = mix(h, v.granted) // symmetry decisions below the node depend on it
	var wm uint64
	for _, pid := range waiting {
		wm |= 1 << uint(pid)
	}
	h = mix(h, wm)
	h = m.foldState(h)
	var ab uint64
	for i := range m.procs {
		if m.procs[i].abort.Load() && i < 64 {
			ab |= 1 << uint(i)
		}
	}
	h = mix(h, ab)
	for _, lh := range s.hist {
		h = mix(h, lh)
	}
	if f := s.fs; f != nil {
		for _, op := range f.ops {
			h = mix(h, uint64(uint32(op)))
		}
	}
	return v.set.seen(h)
}

// foldState folds every allocated word's value and inline coherence set
// into h. Called at quiescent pick points only: the step token serializes
// all operations, so the atomic loads form a consistent snapshot.
func (m *Memory) foldState(h uint64) uint64 {
	n := m.size.Load()
	var a int64
	for k := 0; a < n; k++ {
		seg := *m.segs[k].Load()
		lim := int64(len(seg))
		if n-a < lim {
			lim = n - a
		}
		for i := int64(0); i < lim; i++ {
			w := &seg[i]
			h = mix(h, w.val.Load())
			h = mix(h, w.cached.inline.Load())
		}
		a += lim
	}
	return h
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
