package harness

import (
	"fmt"
	"math/rand"

	"sublock/locks"
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

// gatedRun is one gated workload: the memory, the lock built in it, the
// passage recorder whose Entered and Done flags the PickFunc reads, and the
// stats collector buildGated installs on request (else nil).
//
// The holder "holds" the critical section without any release channel:
// between Enter returning and Exit's first shared-memory operation the
// process blocks at the gate, so the CS lasts exactly as long as the
// PickFunc declines to grant it a step.
type gatedRun struct {
	*PassageLog
	m     *rmr.Memory
	fn    HandleFn
	stats *rmr.Stats
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
func (g *gatedRun) enqueued(pid int) bool {
	return g.Done[pid] || g.Entered[pid] || g.m.Proc(pid).Steps() >= enqueueThreshold
}

// queueDrainPick enforces the queue-drain structure: process 0 runs alone
// until it holds the lock, then processes 1..n-1 are each run alone until
// past their doorway (so the queue forms in id order behind the holder),
// then the drain interleaves every waiting process under the seeded RNG
// until all passages complete.
func (g *gatedRun) queueDrainPick(rng *rand.Rand) rmr.PickFunc {
	cursor := 0
	n := len(g.Done)
	return func(_ int, waiting []int) int {
		for cursor < n {
			pid := cursor
			ready := g.enqueued(pid)
			if pid == 0 {
				ready = g.Entered[0] || g.Done[0]
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
func (g *gatedRun) stormPick(script []*stormStep, rng *rand.Rand) rmr.PickFunc {
	idx, ticks := 0, 0
	return func(_ int, waiting []int) int {
		for idx < len(script) {
			st := script[idx]
			if g.Done[st.pid] {
				idx++
				continue
			}
			switch st.kind {
			case stepEnter:
				if g.Entered[st.pid] {
					idx++
					continue
				}
			case stepEnqueue:
				if g.enqueued(st.pid) {
					idx++
					continue
				}
			case stepAbort:
				if !st.signaled {
					st.signaled = true
					g.m.Proc(st.pid).SignalAbort()
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

// buildGated constructs the memory, lock, and passage recorder shared by
// the gated workloads. The lock is sized for capacity processes, of which
// nprocs run. The cost model and, if withStats is set, an rmr.Stats
// collector are installed after Build — so construction operations stay
// unpriced and uncounted, and every label the lock interned is a column of
// the stats matrix — and before the gate.
func buildGated(model rmr.Model, cost rmr.CostModel, algo Algo, w, nprocs, capacity int, withStats bool) (*gatedRun, error) {
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := locks.Build(m, string(algo), w, capacity)
	if err != nil {
		return nil, err
	}
	if cost != nil {
		m.SetCostModel(cost)
	}
	g := &gatedRun{PassageLog: NewPassageLog(nprocs), m: m, fn: fn}
	if withStats {
		g.stats = rmr.NewStats(m)
		m.SetStats(g.stats)
	}
	return g, nil
}

// snapshot returns the stats collector's counters, or nil without one.
func (g *gatedRun) snapshot() *rmr.Snapshot {
	if g.stats == nil {
		return nil
	}
	return g.stats.Snapshot()
}

// run drives one passage per process under pick to completion.
func (g *gatedRun) run(pick rmr.PickFunc, algo Algo) error {
	s := rmr.NewScheduler(len(g.Done), pick)
	return gatedErr(algo, g.passages(s, g.m, g.fn, 0, gatedStepBudget))
}

// gatedErr names algo in the error of a failed run or a broken passage
// rule.
func gatedErr(algo Algo, err error) error {
	if err != nil {
		return fmt.Errorf("harness: %s gated run failed: %w", algo, err)
	}
	return nil
}

// gatedQueueWorkload is the queue drain behind every QueueWorkload* entry
// point and E15's point-contention sweep: nprocs passages on a lock sized
// for capacity processes.
func gatedQueueWorkload(model rmr.Model, cost rmr.CostModel, algo Algo, w, nprocs, capacity int, withStats bool) (*QueueResult, *rmr.Snapshot, error) {
	g, err := buildGated(model, cost, algo, w, nprocs, capacity, withStats)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(gatedScheduleSeed))
	if err := g.run(g.queueDrainPick(rng), algo); err != nil {
		return nil, nil, err
	}
	return &QueueResult{Passages: g.RMRs, Sim: g.Sim, Words: g.m.Size()}, g.snapshot(), nil
}

// gatedAbortStorm is the abort storm behind every AbortStorm* entry point.
func gatedAbortStorm(model rmr.Model, cost rmr.CostModel, algo Algo, w, aborters int, reverse, withStats bool) (*StormResult, *rmr.Snapshot, error) {
	if !algo.Abortable() {
		return nil, nil, fmt.Errorf("harness: %s cannot run an abort storm", algo)
	}
	nprocs := aborters + 2
	g, err := buildGated(model, cost, algo, w, nprocs, nprocs, withStats)
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
	if err := g.run(g.stormPick(script, rng), algo); err != nil {
		return nil, nil, err
	}
	waiter := nprocs - 1
	res := &StormResult{
		HolderPassage: g.RMRs[0],
		HolderExit:    g.ExitRMRs[0],
		HolderSim:     g.Sim[0],
		WaiterPassage: g.RMRs[waiter],
		WaiterSim:     g.Sim[waiter],
		Words:         g.m.Size(),
	}
	for _, pid := range order {
		if g.Entered[pid] {
			res.Entered++
		} else {
			res.Aborted = append(res.Aborted, g.RMRs[pid])
			res.AbortedSim = append(res.AbortedSim, g.Sim[pid])
		}
	}
	return res, g.snapshot(), nil
}
