package rmr

import "math/bits"

// Partial-order reduction for the Explorer.
//
// Two steps of distinct processes commute unless both touch the same word
// and at least one mutates it: swapping adjacent independent steps in a
// schedule changes neither any operation's result nor the final memory
// state, so the two schedules are equivalent (they have the same
// Mazurkiewicz trace) and exploring both is pure waste. The Explorer's
// SleepSets mode uses the classical sleep-set algorithm over that
// commutation relation to explore exactly one representative path per
// trace — plus sleep-blocked cut points, counted in Result.Equivalent —
// while still visiting the lexicographically least member of every trace,
// which preserves the lexmin-violation guarantee. See docs/MODEL.md
// ("Partial-order reduction") for the independence relation and the
// soundness argument covering CC cache-invalidation effects.

// Reduction selects the Explorer's partial-order reduction mode.
type Reduction int

const (
	// NoReduction explores the full choice tree (the default): every
	// distinct choice sequence is replayed, including schedules that
	// differ only in the order of commuting steps.
	NoReduction Reduction = iota
	// SleepSets prunes schedules provably equivalent to already-explored
	// ones with sleep sets over the step-commutation relation. Explored,
	// Pruned and the lexmin-violation guarantee are then stated over
	// equivalence classes of schedules; Result.Equivalent counts the
	// replays cut at a sleep-blocked choice point. Explorations with more
	// than 64 processes fall back to NoReduction (sleep sets are pid
	// masks).
	SleepSets
)

// porMaxProcs is the largest process count SleepSets supports: sleep sets
// are uint64 pid masks.
const porMaxProcs = 64

// stepAccess is the memory footprint of one scheduled step: the word the
// operation touched and whether it mutated it (write/CAS/F&A/SWAP; failed
// CAS counts as a mutation — it still invalidates under CC and serializes
// against writers). A negative address marks a step whose footprint was
// not observed (a process released by Drain, or a Gate.Await with no
// operation behind it); unknown steps are conservatively dependent on
// everything.
type stepAccess struct {
	addr Addr
	mut  bool
}

var unknownAccess = stepAccess{addr: -1}

func (a stepAccess) known() bool { return a.addr >= 0 }

// dependent reports whether two steps of distinct processes may fail to
// commute. Distinct words always commute: under CC an update's
// invalidations are confined to the updated word's cache set, and a read's
// cache fill touches only the read word's set, so operations on different
// words never affect each other's results, RMR charges, or coherence
// state. Same-word read/read pairs commute too: each read inserts only its
// own process into the cache set, and neither changes the value.
func dependent(a, b stepAccess) bool {
	if !a.known() || !b.known() {
		return true
	}
	return a.addr == b.addr && (a.mut || b.mut)
}

// porState is the recorder's sleep-set machinery. Per-depth snapshot rows
// (sleepAt, pidAt stride nprocs, pendAt stride nprocs) describe the node
// the current schedule passes at each depth, written by the leftmost
// replay through that node; the explorer reads them to compute the sleep
// sets of sibling subtrees, which keeps sibling generation identical at
// every worker count (a task's replay is the leftmost replay through every
// node it generates siblings for).
type porState struct {
	on     bool
	nprocs int
	acc    []stepAccess // the scheduler's per-step access log (aliased)
	cut    bool         // replay ended at a sleep-blocked choice point

	// Subtree seed, installed at the first free pick: the sleep set the
	// explorer computed for this branch.
	seedMask uint64
	seedOp   []stepAccess

	// Online state along the current schedule.
	mask    uint64       // pids currently asleep
	sleepOp []stepAccess // pending-op footprint of each sleeping pid

	pend []stepAccess // backfill scratch: next-op footprint per pid

	// Per-depth snapshots (persist across replays; see type comment).
	sleepAt []uint64     // sleep mask at the node, after wake-filtering
	pidAt   []int32      // waiting pids at the node, by choice index
	pendAt  []stepAccess // next-op footprint from the node, by pid
}

// porPick is the reduction-aware PickFunc body: forced below the prefix,
// and above it the leftmost waiting process not in the sleep set. It
// returns -1 — cutting the schedule — when every waiting process is
// asleep: all continuations from such a node are equivalent to schedules
// explored elsewhere.
func (r *recorder) porPick(step int, waiting []int) int {
	p := &r.por
	v := &r.vis
	r.ensureDepth(step)
	base := step * p.nprocs
	for i, pid := range waiting {
		p.pidAt[base+i] = int32(pid)
	}
	if v.sym {
		v.ensureDepth(step, false)
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
	if step == len(r.prefix) {
		// Entering the subtree root: install the sleep set the explorer
		// computed for this branch. It is already filtered against the
		// branch op at step-1, so no wake pass is needed here.
		p.mask = p.seedMask
		copy(p.sleepOp, p.seedOp)
	} else if p.mask != 0 {
		// The op at step-1 may conflict with a sleeping process's pending
		// op; waking every dependent sleeper keeps the deferral sound (its
		// interleavings are no longer covered by the explored sibling).
		a := p.acc[step-1]
		for q := p.mask; q != 0; q &= q - 1 {
			pid := bits.TrailingZeros64(q)
			if dependent(p.sleepOp[pid], a) {
				p.mask &^= 1 << uint(pid)
			}
		}
	}
	p.sleepAt[step] = p.mask
	// Visited check after the wake filter so the fingerprint keys on the
	// effective sleep set; forced steps above never reach here, so subtree
	// roots replayed from ancestor cuts are not re-checked against keys
	// their own ancestors inserted.
	if v.on && v.seen(step, p.mask, waiting) {
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
		if p.mask&(1<<uint(pid)) != 0 {
			continue
		}
		if v.sym && v.symBlocked(pid, v.granted, wm) {
			symHit = true
			continue
		}
		r.record(i, waiting)
		return i
	}
	// Classify the cut: a symmetry block anywhere makes it a symmetry cut
	// (a canonical representative covers this node); everything else is a
	// sleep cut.
	if symHit {
		v.scut = true
	} else {
		p.cut = true
	}
	return -1
}

// backfill fills the per-depth pending-op snapshots for the free depths of
// the schedule just replayed. A waiting process's next operation is fixed
// while it waits (its address argument is evaluated before the gate call),
// so the access observed at its next grant is its pending-op footprint at
// every earlier node along the path; a backward scan recovers all of them
// in one pass. Depths below the forced prefix keep the rows written by the
// replay that created those nodes.
func (r *recorder) backfill() {
	p := &r.por
	for i := range p.pend {
		p.pend[i] = unknownAccess
	}
	for d := len(r.taken) - 1; d >= len(r.prefix); d-- {
		base := d * p.nprocs
		pid := p.pidAt[base+r.taken[d]]
		p.pend[pid] = p.acc[d]
		copy(p.pendAt[base:base+p.nprocs], p.pend)
	}
}

// asleep reports whether the choice-c sibling at depth d is in that node's
// sleep set, in which case its subtree must not be explored.
func (r *recorder) asleep(d, c int) bool {
	p := &r.por
	return p.sleepAt[d]&(1<<uint(p.pidAt[d*p.nprocs+c])) != 0
}

// childSleep computes the sleep set of the sibling subtree branching off
// the current schedule at depth d with choice c: a process sleeps there
// when it is already asleep at the node, or is an earlier-ordered sibling
// (whose subtree covers the interleavings that run it first), and its
// pending op commutes with the branch op. Footprints of the sleepers are
// written into dst, indexed by pid; unknown footprints are conservatively
// treated as conflicting and excluded.
func (r *recorder) childSleep(d, c int, dst []stepAccess) uint64 {
	p := &r.por
	base := d * p.nprocs
	t := int(p.pidAt[base+c])
	op := p.pendAt[base+t]
	if !op.known() {
		return 0
	}
	cand := p.sleepAt[d]
	for i := 0; i < c; i++ {
		cand |= 1 << uint(p.pidAt[base+i])
	}
	cand &^= 1 << uint(t)
	var mask uint64
	for q := cand; q != 0; q &= q - 1 {
		pid := bits.TrailingZeros64(q)
		if qop := p.pendAt[base+pid]; qop.known() && !dependent(qop, op) {
			mask |= 1 << uint(pid)
			dst[pid] = qop
		}
	}
	return mask
}

// ensureDepth grows the per-depth snapshot rows to cover depth step.
// newReplayer pre-sizes them to the step bound (capped at the same hint as
// the choice log), so steady-state replays never grow here.
func (r *recorder) ensureDepth(step int) {
	p := &r.por
	if step < len(p.sleepAt) {
		return
	}
	for len(p.sleepAt) <= step {
		p.sleepAt = append(p.sleepAt, 0)
		for i := 0; i < p.nprocs; i++ {
			p.pidAt = append(p.pidAt, -1)
			p.pendAt = append(p.pendAt, unknownAccess)
		}
	}
}
