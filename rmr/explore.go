package rmr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Explorer systematically enumerates schedules of a deterministic
// concurrent body by depth-first search over the scheduling-choice tree:
// at every step the set of runnable processes is a choice point, and the
// explorer replays the body once per distinct sequence of choices. For
// small configurations this is exhaustive verification of all
// interleavings — a much stronger statement than sampling seeded schedules.
//
// Requirements on the body: it must be deterministic given the schedule
// (no wall-clock time, no math/rand without a fixed seed, no free-running
// goroutines besides the scheduled processes), and every process must
// issue its shared-memory operations through a Memory gated by the
// scheduler the body receives.
type Explorer struct {
	// MaxSchedules caps the number of replays (explored + pruned +
	// equivalent-cut); 0 means no cap. When the cap stops the search, Run
	// reports exhausted=false.
	MaxSchedules int
	// MaxSteps bounds each schedule's length. Busy-wait loops make the
	// full choice tree infinite (a spinner can be rescheduled forever), so
	// exploration is exhaustive *up to this length*: schedules that hit
	// the bound are pruned — counted in Result.Pruned, not treated as
	// violations — which is the standard bounded-model-checking trade-off.
	// Choose it comfortably above the longest honest completion so that
	// only unfair spin-heavy schedules are pruned. 0 selects 512.
	MaxSteps int
	// Workers is the number of goroutines exploring disjoint prefix
	// subtrees of the choice tree concurrently; 0 or 1 selects one. There
	// is one engine: a single worker visits schedules in lexicographic
	// order, and an uncapped run (MaxSchedules == 0) produces the same
	// Explored/Pruned/Equivalent/Exhausted counts at every worker count. A
	// violating run reports the lexicographically smallest offending
	// schedule — the one a single worker reports first — so replays are
	// stable across worker counts. Two caveats: when MaxSchedules stops a
	// multi-worker search the counts depend on worker timing (up to
	// Workers−1 schedules beyond the cap may complete), and on a violating
	// run only the reported schedule — not the counts — is deterministic.
	// With Workers > 1 the body must additionally be safe to invoke from
	// several goroutines at once: it must not write shared test state
	// outside its own run, and a body that reuses built state between runs
	// (the exhaustive harness rewinds one configuration per worker) must
	// never hand one to two runs at once.
	Workers int
	// Reduction selects partial-order reduction. SleepSets skips
	// schedules that only reorder commuting steps of schedules already
	// explored (see por.go and docs/MODEL.md): exhaustiveness, the
	// deterministic counts and the lexmin-violation guarantee then hold
	// over equivalence classes of schedules — every class with a length-
	// bounded representative is still visited, and the reported violating
	// schedule is still the lexicographically smallest one of the full
	// tree. Configurations with more than 64 processes fall back to
	// NoReduction.
	Reduction Reduction
	// Visited enables state-hash visited caching (see visited.go): replays
	// reaching an already-visited fingerprinted state are cut and counted
	// in Result.VisitedHits. Sound for bodies whose verdict is a function
	// of the reachable state (the Body contract's trace-invariance,
	// strengthened to state-invariance); forced off when a watchdog or a
	// non-crash-only fault plan makes verdicts depend on global step
	// counts, and above 64 processes. Without a fault plan or a watchdog,
	// a replay whose every step below its branch the explorer can tell
	// from what earlier replays learned — down to a visited hit, the step
	// bound or a blocked pick — is counted without running it (see walk in
	// visited.go); the Result is the same.
	Visited bool
	// Symmetry enables process-ID symmetry reduction (see visited.go): a
	// never-granted process is only granted when it is the smallest
	// never-granted id of its role class, cutting schedules that are id
	// permutations of canonical ones. Sound only for bodies that treat the
	// ids within a class interchangeably (locks.Info.IDSymmetric for the
	// registry locks) and launch every process with GoProc before Run so
	// the full waiting set is visible from the first pick. Forced off
	// under any fault plan (crash points name specific ids), a watchdog,
	// and above 64 processes.
	Symmetry bool
	// SymmetryClasses partitions the process ids into interchangeable role
	// classes for Symmetry; ids not listed get singleton classes and are
	// never restricted. nil puts every id in one class.
	SymmetryClasses [][]int
	// Monitor, when non-nil, receives live progress counts so a driver
	// can report throughput while a long exploration runs.
	Monitor *Monitor
	// Watchdog, when positive, arms each replay's liveness watchdog with
	// this overtaking bound (Scheduler.SetWatchdog): starvation then
	// surfaces as a property violation with a lexmin schedule. The
	// watchdog's verdict depends on the order of independent steps, so it
	// forces Reduction off.
	Watchdog int

	// plan, when non-nil, is the fault script every replay runs under;
	// RunFaults sets it per enumerated plan. Plans that are not crash-only
	// force Reduction off (see FaultPlan.CrashOnly).
	plan *FaultPlan

	// noPredict turns the replay prediction off, and audit, when
	// non-nil, runs it in check mode; both are set only by tests.
	noPredict bool
	audit     *predictAudit
}

// Monitor exposes an exploration's progress counters for concurrent
// readers (progress printers); the Explorer updates it after every replay.
type Monitor struct {
	counts    [numOutcomes]atomic.Int64 // replays, by outcome
	predicted [numOutcomes]atomic.Int64 // those of them counted without running
	replayed  [numCauses]atomic.Int64   // the replays that ran, by why (causeNone unused)
	deepest   atomic.Int64              // the most choices a counted replay took
}

// Deepest returns the most choices a replay counted so far took.
func (mn *Monitor) Deepest() int64 { return mn.deepest.Load() }

// Counts returns the schedules explored, pruned at the step bound, and
// cut as equivalent to explored ones so far.
func (mn *Monitor) Counts() (explored, pruned, equivalent int64) {
	return mn.counts[outExplored].Load(), mn.counts[outPruned].Load(), mn.counts[outEquivalent].Load()
}

// CutCounts returns the visited-hit and symmetry-cut replays so far, the
// PR-9 reductions' share of the cut breakdown.
func (mn *Monitor) CutCounts() (visited, symmetry int64) {
	return mn.counts[outVisited].Load(), mn.counts[outSymmetry].Load()
}

// Predicted returns how many replays so far were counted without running
// them: the explorer walked their steps from what earlier replays learned
// (see walk in visited.go). It is the sum of PredictedOutcomes.
func (mn *Monitor) Predicted() int64 {
	hits, prunes, cuts := mn.PredictedOutcomes()
	return hits + prunes + cuts
}

// PredictedOutcomes splits Predicted by what the skipped replay would have
// counted: a visited hit, a prune at the step bound, or a cut at a pick
// that sleep sets or symmetry block (Equivalent or SymmetryCuts).
func (mn *Monitor) PredictedOutcomes() (hits, prunes, cuts int64) {
	p := &mn.predicted
	return p[outVisited].Load(), p[outPruned].Load(), p[outEquivalent].Load() + p[outSymmetry].Load()
}

// ReplayCauses splits the replays that ran by why the explorer could not
// count them without running (see walk in visited.go). In the
// prediction's check mode, which only tests reach, a predicted task is
// replayed without a cause.
type ReplayCauses struct {
	Root          int64 // the exploration's root task
	NoPrediction  int64 // the task was pushed without a prediction
	Completes     int64 // the walk reached the end of the run, whose verdict needs the replay
	Unlearned     int64 // the walk met a step whose continuation was never learned
	Unpredictable int64 // the walk met a step learned as unpredictable, or one it cannot take
}

// Replayed returns why the replays that ran so far were run.
func (mn *Monitor) Replayed() ReplayCauses {
	r := &mn.replayed
	return ReplayCauses{
		Root:          r[causeRoot].Load(),
		NoPrediction:  r[causeNoPrediction].Load(),
		Completes:     r[causeCompletes].Load(),
		Unlearned:     r[causeUnlearned].Load(),
		Unpredictable: r[causeUnpredictable].Load(),
	}
}

// Why a task is replayed rather than walked: the buckets of ReplayCauses.
type replayCause uint8

const (
	causeNone replayCause = iota // walked, or a step told
	causeRoot
	causeNoPrediction
	causeCompletes
	causeUnlearned
	causeUnpredictable
	numCauses
)

// What a replay counts as: the Result count it adds to.
type outcome uint8

const (
	outExplored   outcome = iota // completed, or violated a property
	outPruned                    // stopped by the step bound
	outEquivalent                // cut at a sleep-blocked pick
	outVisited                   // cut at a visited state
	outSymmetry                  // cut at a symmetry-blocked pick
	numOutcomes

	outUnknown = numOutcomes // walk: only a replay can tell
)

// Result summarizes an exploration.
type Result struct {
	// Explored counts completed schedules (each a full run of the body).
	Explored int
	// Pruned counts schedules cut off at MaxSteps.
	Pruned int
	// Equivalent counts replays the partial-order reduction cut at a
	// sleep-blocked choice point: every continuation from such a point
	// only reorders commuting steps of a schedule explored elsewhere.
	// Always 0 with Reduction == NoReduction.
	Equivalent int
	// VisitedHits counts replays the visited-state reduction cut at a
	// choice point whose fingerprinted state was already reached at the
	// same depth under the same sleep set: the continuations are replicas
	// of subtrees covered elsewhere. Always 0 without Explorer.Visited.
	// Deterministic at Workers <= 1; with racing workers what is cut
	// depends on which worker records a state first, so only Exhausted
	// and the verdict are invariant (docs/MODEL.md, "Determinism scope").
	VisitedHits int
	// SymmetryCuts counts replays the symmetry reduction cut at a choice
	// point whose only non-sleeping continuations grant a non-canonical
	// fresh process id: an id-permuted canonical schedule covers them.
	// Always 0 without Explorer.Symmetry.
	SymmetryCuts int
	// Exhausted reports whether the whole (length-bounded) choice tree —
	// up to equivalence when reduction is on — was covered; false when
	// MaxSchedules stopped the search early.
	Exhausted bool
	// VisitedSaturated reports that the visited set reached its capacity
	// (1<<20 fingerprints) and stopped recording new states. Cuts stay
	// sound (only genuinely visited states are ever cut) but the counts
	// may then vary across worker counts and runs.
	VisitedSaturated bool
	// Depths is the schedule-length histogram: Depths[d] counts replays
	// whose choice sequence had length d (pruned and equivalent-cut
	// replays count at the step they were cut at). Deterministic for
	// uncapped runs at any worker count without visited caching; with
	// Explorer.Visited and Workers > 1 the cut depths shift with the
	// hit-vs-pruned split (see VisitedHits).
	Depths []int64
}

// Replays returns the total number of body replays the exploration
// performed: explored + pruned + cut (equivalent, visited, symmetry).
func (r Result) Replays() int {
	return r.Explored + r.Pruned + r.Equivalent + r.VisitedHits + r.SymmetryCuts
}

// add accumulates o into r: counts and depth histograms sum, exhaustion
// ANDs, saturation ORs.
func (r *Result) add(o Result) {
	r.Explored += o.Explored
	r.Pruned += o.Pruned
	r.Equivalent += o.Equivalent
	r.VisitedHits += o.VisitedHits
	r.SymmetryCuts += o.SymmetryCuts
	r.Exhausted = r.Exhausted && o.Exhausted
	r.VisitedSaturated = r.VisitedSaturated || o.VisitedSaturated
	for d, n := range o.Depths {
		for len(r.Depths) <= d {
			r.Depths = append(r.Depths, 0)
		}
		r.Depths[d] += n
	}
}

// noteDepth bumps the length-d bucket, growing the histogram as needed.
func noteDepth(depths *[]int64, d int) {
	for len(*depths) <= d {
		*depths = append(*depths, 0)
	}
	(*depths)[d]++
}

// ErrExplore wraps a property violation with the schedule that produced
// it, so the failure can be replayed.
type ErrExplore struct {
	Schedule []int // the choice indices taken at each step
	Err      error
}

// Error implements error.
func (e *ErrExplore) Error() string {
	return fmt.Sprintf("schedule %v: %v", e.Schedule, e.Err)
}

// Unwrap exposes the underlying property violation.
func (e *ErrExplore) Unwrap() error { return e.Err }

// ReplayPick returns a PickFunc that follows the choice indices of a
// schedule reported by ErrExplore, taking the first alternative once the
// schedule is exhausted. It reproduces a violating run outside the Explorer
// — for example with a tracer installed to capture the events leading up to
// the violation. It panics if a choice index exceeds the branching width,
// which can only happen when the body is nondeterministic or differs from
// the one explored. Schedules reported by reduced explorations replay
// identically: reduction only prunes sibling subtrees, it never alters the
// meaning of a choice sequence.
func ReplayPick(schedule []int) PickFunc {
	return func(step int, waiting []int) int {
		choice := 0
		if step < len(schedule) {
			choice = schedule[step]
		}
		if choice >= len(waiting) {
			panic(fmt.Sprintf("rmr: replay schedule invalid at step %d (choice %d of %d): nondeterministic body?",
				step, choice, len(waiting)))
		}
		return choice
	}
}

// Body is one deterministic run under exploration: every run must start
// from the same state — built from scratch, or rewound to a setup mark
// (Memory.Rewind) when all of the run's state lives in the memory — gate
// its Memory with s, launch its processes with s.Go or s.GoProc, call
// s.Run(maxSteps), and return nil iff all properties held. If s.Run
// returns ErrStepLimit the body must release its processes and return an
// error wrapping ErrStepLimit, which the explorer prunes rather than
// reports. (Schedules the reduction cuts surface to the body as
// ErrStepLimit too, so the same protocol covers them.) Nothing reads a
// pruned or cut run's final state, so s.DrainKill, which unwinds the
// processes where they wait, is the cheap release; a body that does read
// the state after a stall delivers abort signals as appropriate and calls
// s.Drain, which runs the processes to completion.
//
// Under SleepSets the body's verdict must additionally be trace-invariant:
// it may depend on each process's own operation results and on the final
// memory state — both preserved by reordering commuting steps — but not on
// the global order of independent operations (e.g. a schedule-dependent
// log of which process went first).
type Body func(s *Scheduler, maxSteps int) error

// exploreConfig is a run's resolved configuration: the step bound and the
// effective reductions after capability forcing, plus the shared visited
// set every replayer of the run consults.
type exploreConfig struct {
	maxSteps int
	workers  int
	red      Reduction
	vis, sym bool
	pred     bool // replay prediction (see walk in visited.go)
	classes  [][]int
	set      *visitedSet
	audit    *predictAudit
}

// config resolves the explorer's knobs against what the run can soundly
// support, forcing ineligible reductions off (see the knob comments).
func (e *Explorer) config(nprocs int) exploreConfig {
	cfg := exploreConfig{
		maxSteps: e.MaxSteps,
		workers:  max(1, e.Workers),
		red:      e.Reduction,
		classes:  e.SymmetryClasses,
	}
	if cfg.maxSteps == 0 {
		cfg.maxSteps = 512
	}
	if nprocs <= porMaxProcs {
		cfg.vis = e.Visited
		cfg.sym = e.Symmetry
	} else {
		cfg.red = NoReduction
	}
	if e.Watchdog > 0 || !e.plan.CrashOnly() {
		// Stalls key eligibility off the global step count and the watchdog
		// keys its verdict off the order of independent CS entries: both
		// break the trace-invariance sleep sets rely on — and the state-
		// invariance visited caching and symmetry rely on, since neither
		// the watchdog's overtaking counters nor a stall scripts' step
		// coordinates are part of the state fingerprint. Crash-only plans
		// are safe for sleep sets and visited caching — a crash fires at a
		// per-process attempt count, which is preserved by reordering
		// commuting steps and is folded into the fingerprint.
		cfg.red = NoReduction
		cfg.vis = false
		cfg.sym = false
	}
	if e.plan != nil {
		// Any fault plan names specific victim ids, so processes of a class
		// are no longer interchangeable.
		cfg.sym = false
	}
	if cfg.vis {
		cfg.set = takeVisitedSet()
		// A fault plan or the watchdog makes a step's successor depend on
		// more than the process's history.
		cfg.pred = e.plan == nil && e.Watchdog <= 0 && !e.noPredict
		if cfg.pred {
			cfg.audit = e.audit
		}
	}
	return cfg
}

// Run explores schedules of body depth-first over disjoint prefix subtrees
// — in lexicographic order of the choice sequences with one worker. A
// property violation aborts the search with an *ErrExplore carrying the
// offending schedule for replay; see Workers for what is deterministic
// with several workers.
func (e *Explorer) Run(nprocs int, body Body) (Result, error) {
	cfg := e.config(nprocs)
	defer releaseVisitedSet(cfg.set)
	res, err := e.runParallel(nprocs, body, cfg)
	var ee *ErrExplore
	if err != nil && cfg.workers > 1 && cfg.set != nil && errors.As(err, &ee) {
		// Visited-set insertions race across workers, so the parallel
		// winner need not be the lex-least violation of the reduced tree.
		// A one-worker confirmatory rerun over a fresh visited set restores
		// the lexmin guarantee: its discovery order is the lexicographic
		// order. If the rerun's schedule cap stops it short of a violation,
		// keep the parallel report.
		one := cfg
		one.workers, one.set = 1, takeVisitedSet()
		defer releaseVisitedSet(one.set)
		if _, oneErr := e.runParallel(nprocs, body, one); oneErr != nil {
			return res, oneErr
		}
	}
	return res, err
}

// arm installs the exploration's fault plan and watchdog on a replayer's
// scheduler; both persist across the scheduler's per-replay reset.
func (e *Explorer) arm(rp *replayer) {
	if e.plan != nil {
		rp.s.SetFaultPlan(e.plan)
	}
	if e.Watchdog > 0 {
		rp.s.SetWatchdog(e.Watchdog)
	}
}

// FaultSet bounds the crash-point space RunFaults branches over: plans
// injecting up to MaxCrashes crash-stop faults per run (at most one per
// victim), each striking at one of the victim's first MaxOp operation
// attempts. Crash-stop only — stalls and restarts would force reduction
// off and need per-run state; script those with SetFaultPlan directly.
type FaultSet struct {
	// MaxCrashes caps the crashes injected per plan; 0 means 1.
	MaxCrashes int
	// MaxOp is the number of crash points tried per victim (operation
	// attempts 1..MaxOp); 0 means 1.
	MaxOp int
	// Ops lists explicit crash points (1-based operation attempts) tried
	// per victim instead of the 1..MaxOp range; when set, MaxOp is ignored.
	Ops []int
	// Procs lists the candidate victims; nil means every process.
	Procs []int
}

// FaultRun pairs one explored fault plan (nil = fault-free) with the
// sub-exploration's result.
type FaultRun struct {
	Plan   *FaultPlan
	Result Result
}

// ErrFaultExplore is ErrExplore found under an injected fault plan: the
// plan that exposed the violation plus the offending schedule. Replaying
// requires both — install the plan with SetFaultPlan, then drive the
// schedule with ReplayPick.
type ErrFaultExplore struct {
	Plan *FaultPlan
	*ErrExplore
}

// Error implements error.
func (e *ErrFaultExplore) Error() string {
	return fmt.Sprintf("under faults [%v]: %v", e.Plan, e.ErrExplore.Error())
}

// RunFaults explores body under every fault plan in the FaultSet's
// crash-point space — the fault-free plan first, then single and larger
// crash combinations in deterministic order (victims ascending, crash
// points ascending, smaller combinations first). Each plan gets a full
// bounded exploration; the first plan whose exploration finds a violation
// stops the sweep with an *ErrFaultExplore. The aggregate Result sums the
// sub-explorations (MaxSchedules caps the total across plans); the
// returned FaultRun slice itemizes them in plan order. Both plan order and
// each sub-exploration are deterministic, so uncapped aggregate counts and
// the reported (plan, schedule) pair are identical at every worker count.
func (e *Explorer) RunFaults(nprocs int, body Body, fs FaultSet) (Result, []FaultRun, error) {
	victims := fs.Procs
	if victims == nil {
		victims = make([]int, nprocs)
		for pid := range victims {
			victims[pid] = pid
		}
	}
	maxCrashes := min(max(fs.MaxCrashes, 1), len(victims))
	ops := fs.Ops
	if len(ops) == 0 {
		maxOp := fs.MaxOp
		if maxOp <= 0 {
			maxOp = 1
		}
		ops = make([]int, maxOp)
		for i := range ops {
			ops[i] = i + 1
		}
	}

	plans := []*FaultPlan{nil} // the fault-free baseline comes first
	var build func(k, start int, cur []FaultSpec)
	build = func(k, start int, cur []FaultSpec) {
		if k == 0 {
			plans = append(plans, &FaultPlan{Faults: append([]FaultSpec(nil), cur...)})
			return
		}
		for i := start; i <= len(victims)-k; i++ {
			for _, op := range ops {
				build(k-1, i+1, append(cur, FaultSpec{Proc: victims[i], Kind: FaultCrash, Op: op}))
			}
		}
	}
	for k := 1; k <= maxCrashes; k++ {
		build(k, 0, nil)
	}

	var total Result
	var runs []FaultRun
	total.Exhausted = true
	for _, plan := range plans {
		sub := *e
		sub.plan = plan
		if e.MaxSchedules > 0 {
			remaining := e.MaxSchedules - total.Replays()
			if remaining <= 0 {
				total.Exhausted = false
				break
			}
			sub.MaxSchedules = remaining
		}
		res, err := sub.Run(nprocs, body)
		total.add(res)
		runs = append(runs, FaultRun{Plan: plan, Result: res})
		if err != nil {
			var ee *ErrExplore
			if plan != nil && errors.As(err, &ee) {
				return total, runs, &ErrFaultExplore{Plan: plan, ErrExplore: ee}
			}
			return total, runs, err
		}
	}
	return total, runs, nil
}

// exTask is a pending subtree root of a parallel exploration: the forced
// choice prefix plus — under reduction — the subtree's sleep set (pid mask
// and the pending-op footprints of the sleeping pids, indexed by pid), and
// under visited caching whether the replay of the subtree's leftmost
// schedule is predicted (see walk in visited.go), with the row it records
// at its first free pick.
type exTask struct {
	prefix []int
	mask   uint64
	pend   []stepAccess
	pred   bool
	first  *predRow
}

// runParallel is the exploration engine: it fans the choice tree out over
// a pool of one or more workers. Tasks are subtree roots (choice prefixes);
// replaying a task's leftmost schedule discovers the branching widths
// along it, and every untried alternative on that path becomes a new
// task. The subtrees rooted at distinct pending tasks are pairwise
// disjoint and jointly cover exactly the unexplored remainder of the tree,
// so the Explored/Pruned/Equivalent sums of an uncapped run are
// independent of scheduling. (Under reduction this relies on sibling sleep
// sets being computed from the same data at every worker count: the
// replay that generates a node's siblings is the leftmost replay through
// that node.)
//
// Workers keep the tasks they generate on a private LIFO stack (so the
// steady state costs no locks, only a handful of atomic operations per
// replay) and donate the shallower half to the shared pool whenever some
// worker is starved. One worker pops its stack in lexicographic order. A
// capped run just stops: its pending subtrees are dropped and the Result
// reports Exhausted=false.
func (e *Explorer) runParallel(nprocs int, body Body, cfg exploreConfig) (Result, error) {
	st := &parState{
		maxSchedules: e.MaxSchedules,
		workers:      cfg.workers,
		mon:          e.Monitor,
		stack:        []exTask{{}}, // the root subtree: no forced choices
	}
	st.work = sync.NewCond(&st.mu)
	var wg sync.WaitGroup
	for i := 0; i < st.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := newReplayer(nprocs, cfg)
			e.arm(rp)
			defer rp.close()
			depths := st.worker(rp, body, cfg.maxSteps)
			st.mu.Lock()
			for d, n := range depths {
				for len(st.depths) <= d {
					st.depths = append(st.depths, 0)
				}
				st.depths[d] += n
			}
			st.mu.Unlock()
		}()
	}
	wg.Wait()

	res := Result{
		Explored:     int(st.counts[outExplored].Load()),
		Pruned:       int(st.counts[outPruned].Load()),
		Equivalent:   int(st.counts[outEquivalent].Load()),
		VisitedHits:  int(st.counts[outVisited].Load()),
		SymmetryCuts: int(st.counts[outSymmetry].Load()),
		Depths:       st.depths,
	}
	if cfg.set != nil && cfg.set.sat.Load() {
		res.VisitedSaturated = true
	}
	if b := st.best.Load(); b != nil {
		return res, b
	}
	res.Exhausted = !st.capped.Load()
	return res, nil
}

// parState is the shared state of an exploration. The hot fields
// are all atomics; mu guards only the shared task pool and the idle count,
// which steady-state replays never touch.
type parState struct {
	maxSchedules int
	workers      int
	mon          *Monitor

	counts [numOutcomes]atomic.Int64 // replays, by outcome
	capped atomic.Bool
	best   atomic.Pointer[ErrExplore] // lexicographically smallest violation

	mu     sync.Mutex
	work   *sync.Cond
	stack  []exTask     // shared pool of pending subtree roots
	idle   int          // workers parked in steal
	hungry atomic.Int32 // mirrors idle, read lock-free by producers
	depths []int64      // merged per-worker depth histograms
}

// worker is one exploration loop: pop a task (locally when possible),
// walk or replay it, account for it, and push the sibling subtrees
// branching off its schedule. Siblings are pushed deepest-last so the
// local LIFO pop order is the lexicographic depth-first order and stays
// depth-bounded.
func (st *parState) worker(rp *replayer, body Body, maxSteps int) []int64 {
	// Task slices are carved with a fixed capacity and recycled through a
	// worker-local freelist once consumed, so steady-state sibling pushes
	// allocate nothing. Ownership is transferred by the pop: a donated
	// task retires into the freelist of the worker that ran it.
	hint := min(maxSteps+1, 4096)
	rec := &rp.rec
	var local, free []exTask
	var depths []int64
	vs := rec.vis.set // nil without visited caching
	vs.acquire()
	defer vs.release()
	for {
		vs.boundary()
		if st.capped.Load() {
			return depths
		}
		var task exTask
		ok := false
		for n := len(local); n > 0; n = len(local) {
			t := local[n-1]
			local = local[:n-1]
			// Discard subtrees that cannot contain a smaller violation
			// than the best one found: every schedule in them compares
			// greater, so exploring them cannot change the result.
			if b := st.best.Load(); b != nil && lexCompare(t.prefix, b.Schedule) > 0 {
				if cap(t.prefix) >= hint {
					free = append(free, t)
				}
				continue
			}
			task, ok = t, true
			break
		}
		if !ok {
			vs.release() // a parked worker must not hold up growth
			task, ok = st.steal()
			vs.acquire()
			if !ok {
				return depths
			}
		}

		// Sibling subtrees of a violating schedule compare greater than it,
		// so on a violation there is nothing worth pushing.
		o, d, why := outUnknown, 0, causeNoPrediction
		switch {
		case len(task.prefix) == 0:
			why = causeRoot
		case task.pred && rec.vis.audit != nil:
			why = causeNone // the check mode replays it anyway
		case task.pred:
			o, d, why = rec.walk(&task, true)
		}
		push := true // a walk leaves the recorder as the replay would
		if o != outUnknown {
			st.count(o, d, true, &depths)
		} else {
			if mn := st.mon; mn != nil && why != causeNone {
				mn.replayed[why].Add(1)
			}
			push = !st.replay(rp, body, maxSteps, task, &depths)
		}
		if push {
			local, free = rec.siblings(task, local, free, hint)
			if h := st.hungry.Load(); h > 0 && len(local) > 1 {
				st.share(&local, int(h))
			}
		}
		if st.maxSchedules > 0 && st.replays() >= int64(st.maxSchedules) {
			st.capped.Store(true)
			st.wakeAll()
			return depths
		}
		// The replayed task is dead: rec.prefix still aliases it, but the
		// next run overwrites that before any pick reads it.
		if cap(task.prefix) >= hint {
			free = append(free, task)
		}
	}
}

// count counts one replay that ended with outcome o after depth choices;
// predicted says it was walked, not run.
func (st *parState) count(o outcome, depth int, predicted bool, depths *[]int64) {
	st.counts[o].Add(1)
	if mn := st.mon; mn != nil {
		mn.counts[o].Add(1)
		if predicted {
			mn.predicted[o].Add(1)
		}
		for d := mn.deepest.Load(); int64(depth) > d && !mn.deepest.CompareAndSwap(d, int64(depth)); d = mn.deepest.Load() {
		}
	}
	noteDepth(depths, depth)
}

// replay runs a task's leftmost schedule and counts it, reporting whether
// it violated a property. In the prediction's check mode it first walks a
// predicted task and then audits the replay against the walk.
func (st *parState) replay(rp *replayer, body Body, maxSteps int, task exTask, depths *[]int64) (violation bool) {
	rec := &rp.rec
	if rec.por.on {
		rec.por.seedMask = task.mask
		if task.pend != nil {
			copy(rec.por.seedOp, task.pend)
		}
	}
	au := rec.vis.audit
	var w *walked
	if au != nil && task.pred {
		w = au.walk(rec, &task)
	}
	runErr := rp.run(task.prefix, body, maxSteps)
	o := rec.outcome(runErr)
	if w != nil {
		au.compare(rec, &task, w, o)
	}
	st.count(o, len(rec.taken), false, depths)
	if runErr != nil && o == outExplored {
		st.noteViolation(rec.taken, runErr)
		return true
	}
	return false
}

// outcome classifies the replay just run, which ended with runErr.
func (r *recorder) outcome(runErr error) outcome {
	switch {
	case !errors.Is(runErr, ErrStepLimit):
		return outExplored // nil, or a violation
	case r.vis.vcut:
		return outVisited
	case r.vis.scut:
		return outSymmetry
	case r.por.cut:
		return outEquivalent
	}
	return outPruned
}

// siblings appends to local the sibling subtrees branching off the free
// part of the schedule just replayed or walked for task, each with its
// sleep set and prediction, and returns both stacks. Task slices are
// carved from free, which it also returns.
func (r *recorder) siblings(task exTask, local, free []exTask, hint int) ([]exTask, []exTask) {
	if r.por.on {
		r.backfill()
	}
	for d := len(task.prefix); d < len(r.taken); d++ {
		for c := r.width[d] - 1; c > r.taken[d]; c-- {
			if r.skipSibling(d, c) {
				continue
			}
			var t exTask
			if n := len(free); n > 0 && cap(free[n-1].prefix) > d {
				t = free[n-1]
				t.prefix = t.prefix[:d+1]
				free = free[:n-1]
			} else {
				t = exTask{prefix: make([]int, d+1, max(hint, d+1))}
			}
			copy(t.prefix, r.taken[:d])
			t.prefix[d] = c
			if r.por.on {
				if t.pend == nil {
					t.pend = make([]stepAccess, r.por.nprocs)
				}
				t.mask = r.childSleep(d, c, t.pend)
			}
			t.pred = false
			if r.vis.pred {
				r.predict(&t, d, c)
			}
			local = append(local, t)
		}
	}
	return local, free
}

// replays totals the counted replays so far.
func (st *parState) replays() int64 {
	var n int64
	for i := range st.counts {
		n += st.counts[i].Load()
	}
	return n
}

// share donates the shallowest tasks of a worker's local stack — the
// larger subtrees, which sit at the bottom of the LIFO — to the shared
// pool, one per starved worker, and wakes exactly that many.
func (st *parState) share(local *[]exTask, hungry int) {
	l := *local
	k := len(l) - 1 // always keep one task to continue on
	if k > hungry {
		k = hungry
	}
	st.mu.Lock()
	st.stack = append(st.stack, l[:k]...)
	st.mu.Unlock()
	for i := 0; i < k; i++ {
		st.work.Signal()
	}
	n := copy(l, l[k:])
	*local = l[:n]
}

// steal pops a task from the shared pool, blocking while other workers may
// still donate work. It returns false when the search is over: every
// worker is starved (the tree is fully claimed), or the schedule cap was
// hit.
func (st *parState) steal() (exTask, bool) {
	st.mu.Lock()
	st.idle++
	st.hungry.Store(int32(st.idle))
	for {
		for n := len(st.stack); n > 0; n = len(st.stack) {
			t := st.stack[n-1]
			st.stack = st.stack[:n-1]
			if b := st.best.Load(); b != nil && lexCompare(t.prefix, b.Schedule) > 0 {
				continue
			}
			st.idle--
			st.hungry.Store(int32(st.idle))
			st.mu.Unlock()
			return t, true
		}
		if st.idle == st.workers || st.capped.Load() {
			st.work.Broadcast()
			st.mu.Unlock()
			return exTask{}, false
		}
		st.work.Wait()
	}
}

// noteViolation records a violating schedule, keeping the
// lexicographically smallest one. The schedule is copied: the worker
// reuses its choice log on the next replay.
func (st *parState) noteViolation(schedule []int, err error) {
	e := &ErrExplore{Schedule: append([]int(nil), schedule...), Err: err}
	for {
		cur := st.best.Load()
		if cur != nil && lexCompare(cur.Schedule, e.Schedule) <= 0 {
			return
		}
		if st.best.CompareAndSwap(cur, e) {
			return
		}
	}
}

func (st *parState) wakeAll() {
	st.mu.Lock()
	st.work.Broadcast()
	st.mu.Unlock()
}

// lexCompare orders choice sequences lexicographically, with a proper
// prefix ordered before its extensions.
func lexCompare(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// recorder is a PickFunc that follows a forced prefix of choice indices
// and then always takes the first alternative — the first one not reduced
// away (asleep, visited or symmetry-blocked) — recording the choices made
// and the branching width at every step. Its por state is described in
// por.go, its vis state in visited.go.
type recorder struct {
	prefix []int
	taken  []int
	width  []int
	por    porState
	vis    visState
}

// replayer bundles a recorder with a scheduler that is reset and reused
// across replays, so that a replay allocates nothing beyond what the body
// itself allocates: the choice log, the waiting buffer, the reduction's
// access log and snapshots, and the process coroutines all persist from
// run to run.
type replayer struct {
	rec recorder
	s   *Scheduler
}

// newReplayer pre-sizes the choice log (and, under reduction, the access
// log and per-depth snapshots) to the step bound so that steady replays do
// not grow slices while holding the scheduler lock. The caller must
// close() the replayer when the exploration is over to stop the reused
// process coroutines.
func newReplayer(nprocs int, cfg exploreConfig) *replayer {
	maxSteps := cfg.maxSteps
	hint := min(maxSteps+1, 4096)
	rp := &replayer{rec: recorder{
		taken: make([]int, 0, hint),
		width: make([]int, 0, hint),
	}}
	rp.s = NewScheduler(nprocs, rp.rec.pick)
	rp.s.reuse = true
	if cfg.red == SleepSets && nprocs <= porMaxProcs {
		p := &rp.rec.por
		p.on = true
		p.nprocs = nprocs
		p.acc = make([]stepAccess, maxSteps)
		p.seedOp = make([]stepAccess, nprocs)
		p.sleepOp = make([]stepAccess, nprocs)
		p.pend = make([]stepAccess, nprocs)
		p.sleepAt = make([]uint64, hint)
		p.pidAt = make([]int32, hint*nprocs)
		p.pendAt = make([]stepAccess, hint*nprocs)
		rp.s.acc = p.acc
	}
	v := &rp.rec.vis
	v.nprocs = nprocs
	if cfg.vis {
		v.on = true
		v.set = cfg.set
		v.s = rp.s
		rp.s.hist = make([]uint64, nprocs)
	}
	if cfg.pred {
		v.pred = true
		v.maxSteps = maxSteps
		v.audit = cfg.audit
		v.learn = newLearnTable()
		rp.s.learn = v.learn
		rp.s.pend = make([]pendingOp, nprocs)
		rp.s.ctl = make([]uint64, nprocs)
	}
	if cfg.sym {
		v.sym = true
		v.initSym(nprocs, cfg.classes)
		v.grantedAt = make([]uint64, 0, hint)
		if !rp.rec.por.on {
			v.pidAt = make([]int32, 0, hint*nprocs)
		}
	}
	return rp
}

// run replays the leftmost schedule of the subtree rooted at prefix.
func (rp *replayer) run(prefix []int, body Body, maxSteps int) error {
	rp.rec.prefix = prefix
	rp.rec.taken = rp.rec.taken[:0]
	rp.rec.width = rp.rec.width[:0]
	rp.rec.por.cut = false
	v := &rp.rec.vis
	v.vcut, v.scut = false, false
	v.granted = 0
	rp.s.reset()
	return body(rp.s, maxSteps)
}

func (rp *replayer) close() { rp.s.stopCoroutines() }

func (r *recorder) pick(step int, waiting []int) int {
	switch {
	case r.por.on || r.vis.active():
		return r.reducedPick(step, waiting)
	case step < len(r.prefix):
		return r.forced(step, waiting)
	}
	r.record(0, waiting)
	return 0
}

// badPrefix reports a forced choice exceeding the branching width: the
// tree shifted under a stale prefix, which is possible only if the body is
// nondeterministic, violating the contract.
func badPrefix(step, choice, width int) string {
	return fmt.Sprintf("rmr: exploration prefix invalid at step %d (choice %d of %d): nondeterministic body?",
		step, choice, width)
}
