package harness

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"sublock/rmr"
)

// Every harness workload runs its processes under a seeded scheduler gate
// (runScheduled) — the only way the simulator runs processes concurrently.
// The gate serializes every shared-memory step through a PickFunc whose
// choices depend only on its own deterministic state, so the schedule, the
// RMR counts, the stats counters, and the priced simulated times are all
// bit-reproducible. The Table 1 workloads here (the queue drain and the
// abort storm, behind every QueueWorkload* and AbortStorm* entry point)
// script their schedules; MultiPassage (E9) and Churn (E14) run under a
// seeded RandomPick.
//
// The scheduling seed is fixed (Churn's aside): the schedule is part of the
// workload's definition, so a cost model's seed varies only the pricing,
// never the interleaving.
const (
	gatedScheduleSeed = 1
	gatedStepBudget   = 20_000_000
	// enqueueThreshold is the number of shared-memory steps after which a
	// process is certainly past its doorway (every algorithm's doorway
	// completes within its first few operations; a process still running
	// past the threshold is spinning in its wait loop).
	enqueueThreshold = 8
)

// gatedPassages collects one Enter/CS/Exit passage per process under a
// gate. The entered/done flags are read by the PickFunc: picks happen only
// at quiescent points where every live process is blocked at the gate, so
// flag values observed there are settled and the schedule stays
// deterministic.
type gatedPassages struct {
	stats    *rmr.Stats // installed by buildGated on request, else nil
	entered  []atomic.Bool
	done     []atomic.Bool
	ok       []bool
	rmrs     []int64
	sim      []int64
	exitRMRs []int64
}

func newGatedPassages(nprocs int) *gatedPassages {
	return &gatedPassages{
		entered:  make([]atomic.Bool, nprocs),
		done:     make([]atomic.Bool, nprocs),
		ok:       make([]bool, nprocs),
		rmrs:     make([]int64, nprocs),
		sim:      make([]int64, nprocs),
		exitRMRs: make([]int64, nprocs),
	}
}

// body returns process i's passage body. The holder "holds" the critical
// section without any release channel: between Enter returning and Exit's
// first shared-memory operation the process blocks at the gate, so the CS
// lasts exactly as long as the PickFunc declines to grant it a step.
func (g *gatedPassages) body(p *rmr.Proc, h Handle, i int) func() {
	return func() {
		before, simBefore := p.RMRs(), p.SimTime()
		if h.Enter() {
			g.entered[i].Store(true)
			exitBefore := p.RMRs()
			h.Exit()
			g.exitRMRs[i] = p.RMRs() - exitBefore
			g.ok[i] = true
		}
		g.rmrs[i] = p.RMRs() - before
		g.sim[i] = p.SimTime() - simBefore
		g.done[i].Store(true)
	}
}

// indexOf returns pid's index in the id-sorted waiting set, or -1.
func indexOf(waiting []int, pid int) int {
	for i, p := range waiting {
		if p == pid {
			return i
		}
	}
	return -1
}

// enqueued reports whether process pid is certainly past its doorway: it
// entered the CS, finished, or has taken enqueueThreshold steps.
func (g *gatedPassages) enqueued(m *rmr.Memory, pid int) bool {
	return g.done[pid].Load() || g.entered[pid].Load() ||
		m.Proc(pid).Steps() >= enqueueThreshold
}

// queueDrainPick enforces the queue-drain structure: process 0 runs alone
// until it holds the lock, then processes 1..n-1 are each run alone until
// past their doorway (so the queue forms in id order behind the holder),
// then the drain interleaves every waiting process under the seeded RNG
// until all passages complete.
func (g *gatedPassages) queueDrainPick(m *rmr.Memory, rng *rand.Rand) rmr.PickFunc {
	cursor := 0
	n := len(g.done)
	return func(_ int, waiting []int) int {
		for cursor < n {
			pid := cursor
			ready := g.enqueued(m, pid)
			if pid == 0 {
				ready = g.entered[0].Load() || g.done[0].Load()
			}
			if ready {
				cursor++
				continue
			}
			if i := indexOf(waiting, pid); i >= 0 {
				return i
			}
			break
		}
		return rng.Intn(len(waiting))
	}
}

// stormStep is one stage of the gated abort storm's schedule script.
type stormStep struct {
	kind     stormStepKind
	pid      int
	signaled bool
}

type stormStepKind int

const (
	stepEnter   stormStepKind = iota // run pid alone until it holds the lock
	stepEnqueue                      // run pid alone until past its doorway
	stepAbort                        // signal pid and run it until its passage ends
)

// stormPick drives the abort-storm script: the holder acquires, the
// aborters and then the live waiter enqueue in order, each aborter is
// signaled and unwound one at a time while the holder is withheld, and the
// final drain releases the holder's exit handoff and the waiter's passage
// under the seeded RNG. Abort signals are delivered inside the pick — a
// quiescent point — so delivery lands at the same step in every run.
func (g *gatedPassages) stormPick(m *rmr.Memory, script []*stormStep, rng *rand.Rand) rmr.PickFunc {
	idx, ticks := 0, 0
	return func(_ int, waiting []int) int {
		for idx < len(script) {
			st := script[idx]
			if g.done[st.pid].Load() {
				idx++
				continue
			}
			switch st.kind {
			case stepEnter:
				if g.entered[st.pid].Load() {
					idx++
					continue
				}
			case stepEnqueue:
				if g.enqueued(m, st.pid) {
					idx++
					continue
				}
			case stepAbort:
				if !st.signaled {
					st.signaled = true
					m.Proc(st.pid).SignalAbort()
				}
				// Prefer the aborter, but hand every fourth step to a
				// non-holder peer: an abort path that needs a peer's
				// cooperation must not livelock the stage, and the holder
				// must not exit before the storm is assembled.
				ticks++
				if ticks%4 == 0 {
					if i := pickPeer(waiting, st.pid, rng); i >= 0 {
						return i
					}
				}
			}
			if i := indexOf(waiting, st.pid); i >= 0 {
				return i
			}
			break
		}
		return rng.Intn(len(waiting))
	}
}

// pickPeer picks a seeded-random waiting process that is neither the
// holder (pid 0) nor skip, or -1 when there is none.
func pickPeer(waiting []int, skip int, rng *rand.Rand) int {
	n := 0
	for _, pid := range waiting {
		if pid != 0 && pid != skip {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := rng.Intn(n)
	for i, pid := range waiting {
		if pid != 0 && pid != skip {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// buildGated constructs the memory, lock, and per-passage collector shared
// by the gated workloads. The lock is sized for capacity processes, of
// which nprocs run. The cost model and, if withStats is set, an rmr.Stats
// collector are installed after Build — so construction operations stay
// unpriced and uncounted, and every label the lock interned is a column of
// the stats matrix — and before the gate.
func buildGated(model rmr.Model, cost rmr.CostModel, algo Algo, w, nprocs, capacity int, withStats bool) (*gatedPassages, *rmr.Memory, HandleFn, error) {
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := BuildCap(m, algo, w, capacity)
	if err != nil {
		return nil, nil, nil, err
	}
	if cost != nil {
		m.SetCostModel(cost)
	}
	g := newGatedPassages(nprocs)
	if withStats {
		g.stats = rmr.NewStats(m)
		m.SetStats(g.stats)
	}
	return g, m, fn, nil
}

// snapshot returns the stats collector's counters, or nil without one.
func (g *gatedPassages) snapshot() *rmr.Snapshot {
	if g.stats == nil {
		return nil
	}
	return g.stats.Snapshot()
}

// runGated launches one passage per process under the scheduler and drives
// it to completion.
func runGated(g *gatedPassages, m *rmr.Memory, fn HandleFn, s *rmr.Scheduler, algo Algo) error {
	return runScheduled(m, s, algo, func(i int) func() {
		p := m.Proc(i)
		return g.body(p, fn(p), i)
	})
}

// runScheduled gates m with s, launches body(i) as process i for every
// process of m, and drives the schedule to completion within
// gatedStepBudget, draining on a stall so the caller gets an error instead
// of a leaked schedule.
func runScheduled(m *rmr.Memory, s *rmr.Scheduler, algo Algo, body func(i int) func()) error {
	m.SetGate(s)
	for i := 0; i < m.NumProcs(); i++ {
		s.Go(body(i))
	}
	if err := s.Run(gatedStepBudget); err != nil {
		for i := 0; i < m.NumProcs(); i++ {
			m.Proc(i).SignalAbort()
		}
		s.Drain()
		return fmt.Errorf("harness: %s gated run stalled: %w", algo, err)
	}
	return nil
}

// gatedQueueWorkload is the queue drain behind every QueueWorkload* entry
// point and E15's point-contention sweep: nprocs passages on a lock sized
// for capacity processes.
func gatedQueueWorkload(model rmr.Model, cost rmr.CostModel, algo Algo, w, nprocs, capacity int, withStats bool) (*QueueResult, *rmr.Snapshot, error) {
	g, m, fn, err := buildGated(model, cost, algo, w, nprocs, capacity, withStats)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(gatedScheduleSeed))
	s := rmr.NewScheduler(nprocs, g.queueDrainPick(m, rng))
	if err := runGated(g, m, fn, s, algo); err != nil {
		return nil, nil, err
	}
	res := &QueueResult{Words: m.Size()}
	for i := 0; i < nprocs; i++ {
		if !g.ok[i] {
			return nil, nil, fmt.Errorf("harness: %s process %d failed its passage", algo, i)
		}
		res.Passages = append(res.Passages, g.rmrs[i])
		res.Sim = append(res.Sim, g.sim[i])
	}
	return res, g.snapshot(), nil
}

// gatedAbortStorm is the abort storm behind every AbortStorm* entry point.
func gatedAbortStorm(model rmr.Model, cost rmr.CostModel, algo Algo, w, aborters int, reverse, withStats bool) (*StormResult, *rmr.Snapshot, error) {
	if !algo.Abortable() {
		return nil, nil, fmt.Errorf("harness: %s cannot run an abort storm", algo)
	}
	nprocs := aborters + 2
	g, m, fn, err := buildGated(model, cost, algo, w, nprocs, nprocs, withStats)
	if err != nil {
		return nil, nil, err
	}
	script := []*stormStep{{kind: stepEnter, pid: 0}}
	for i := 1; i <= aborters; i++ {
		script = append(script, &stormStep{kind: stepEnqueue, pid: i})
	}
	script = append(script, &stormStep{kind: stepEnqueue, pid: nprocs - 1})
	order := make([]int, aborters)
	for i := range order {
		if reverse {
			order[i] = aborters - i
		} else {
			order[i] = 1 + i
		}
	}
	for _, pid := range order {
		script = append(script, &stormStep{kind: stepAbort, pid: pid})
	}
	rng := rand.New(rand.NewSource(gatedScheduleSeed))
	s := rmr.NewScheduler(nprocs, g.stormPick(m, script, rng))
	if err := runGated(g, m, fn, s, algo); err != nil {
		return nil, nil, err
	}
	if !g.ok[0] {
		return nil, nil, fmt.Errorf("harness: %s holder failed to acquire", algo)
	}
	waiter := nprocs - 1
	if !g.ok[waiter] {
		return nil, nil, fmt.Errorf("harness: %s waiter failed to acquire", algo)
	}
	res := &StormResult{
		HolderPassage: g.rmrs[0],
		HolderExit:    g.exitRMRs[0],
		HolderSim:     g.sim[0],
		WaiterPassage: g.rmrs[waiter],
		WaiterSim:     g.sim[waiter],
		Words:         m.Size(),
	}
	for _, pid := range order {
		if g.ok[pid] {
			res.Entered++
		} else {
			res.Aborted = append(res.Aborted, g.rmrs[pid])
			res.AbortedSim = append(res.AbortedSim, g.sim[pid])
		}
	}
	return res, g.snapshot(), nil
}
