package harness

import (
	"sublock/locks"
	"sublock/rmr"
)

// StormResult reports an AbortStorm run.
type StormResult struct {
	// HolderPassage is the RMR cost of the complete passage that performed
	// the handoff across every aborted slot (Table 1's "complete passage"
	// with A_i aborts).
	HolderPassage int64
	// HolderExit isolates the exit-path handoff cost inside HolderPassage.
	HolderExit int64
	// WaiterPassage is the RMR cost of the successor's complete passage,
	// including any abort-chain traversal its algorithm performs on entry.
	WaiterPassage int64
	// Aborted is the per-attempt RMR cost of every aborted passage.
	Aborted Series
	// HolderSim, WaiterSim, and AbortedSim mirror HolderPassage,
	// WaiterPassage, and Aborted in simulated time under the run's cost
	// model (equal to the RMR figures under the default Unit model).
	HolderSim  int64
	WaiterSim  int64
	AbortedSim Series
	// Words is the shared-memory footprint after the run.
	Words int
	// Entered counts how many of the storm's aborters entered the CS
	// anyway (possible when a handoff raced their signal; they exit
	// normally and the run remains valid).
	Entered int
}

// AbortStorm drives the Table 1 adaptive/worst-case scenario on a lock
// under the CC model: process 0 acquires and holds; `aborters` processes
// enqueue behind it and then abort one at a time (front-to-back, or
// back-to-front if reverse is set — the worst case for adoption-chain
// algorithms); one more process enqueues as the live waiter; the holder
// exits, paying the handoff across every abandoned slot; the waiter
// completes its passage. The run is scheduled by the fixed-seed gate (see
// gated.go), so every result is bit-deterministic.
//
// The total process count is aborters+2. MCS is rejected (not abortable).
func AbortStorm(algo Algo, w, aborters int, reverse bool) (*StormResult, error) {
	res, _, err := gatedAbortStorm(rmr.CC, nil, algo, w, aborters, reverse, false)
	return res, err
}

// AbortStormCost is AbortStorm under the given memory model, with the cost
// model pricing the result's simulated-time fields (rmr.Unit prices them
// as the RMR counts). Pricing is observe-only: the schedule and the RMR
// fields do not depend on it.
func AbortStormCost(model rmr.Model, cost rmr.CostModel, algo Algo, w, aborters int, reverse bool) (*StormResult, error) {
	res, _, err := gatedAbortStorm(model, cost, algo, w, aborters, reverse, false)
	return res, err
}

// AbortStormStats is AbortStorm under the given memory model with an
// rmr.Stats collector installed for the whole run, returning the
// per-process × per-phase × per-label counter snapshot alongside the RMR
// result. The Stats observation path perturbs no RMR counts, so the
// StormResult matches the uninstrumented run's.
func AbortStormStats(model rmr.Model, algo Algo, w, aborters int, reverse bool) (*StormResult, *rmr.Snapshot, error) {
	return gatedAbortStorm(model, nil, algo, w, aborters, reverse, true)
}

// QueueResult reports a QueueWorkload run.
type QueueResult struct {
	// Passages holds the per-process RMR cost of each complete passage.
	Passages Series
	// Sim holds each passage's simulated time under the run's cost model,
	// index-aligned with Passages (equal to it under the default Unit
	// model).
	Sim Series
	// Words is the shared-memory footprint after the run.
	Words int
}

// QueueWorkload drives the Table 1 no-abort scenario under the CC model:
// nprocs processes enqueue one at a time until all wait behind the first,
// then the queue drains through successive handoffs; every process
// performs one complete passage. The per-passage RMR cost is the "No
// aborts" column. Like AbortStorm, the run is scheduled by the fixed-seed
// gate.
func QueueWorkload(algo Algo, w, nprocs int) (*QueueResult, error) {
	res, _, err := gatedQueueWorkload(rmr.CC, nil, algo, w, nprocs, nprocs, false)
	return res, err
}

// QueueWorkloadCost is QueueWorkload under the given memory model, with
// the cost model pricing the result's Sim series.
func QueueWorkloadCost(model rmr.Model, cost rmr.CostModel, algo Algo, w, nprocs int) (*QueueResult, error) {
	res, _, err := gatedQueueWorkload(model, cost, algo, w, nprocs, nprocs, false)
	return res, err
}

// QueueWorkloadStats is QueueWorkload under the given memory model with an
// rmr.Stats collector installed for the whole run, returning the counter
// snapshot alongside the RMR result.
func QueueWorkloadStats(model rmr.Model, algo Algo, w, nprocs int) (*QueueResult, *rmr.Snapshot, error) {
	return gatedQueueWorkload(model, nil, algo, w, nprocs, nprocs, true)
}

// MultiPassageResult reports a MultiPassage run.
type MultiPassageResult struct {
	// Passages holds every passage's RMR cost across all processes.
	Passages Series
	// WordsBefore and WordsAfter bracket the workload to expose space
	// growth (Table 1's space column for the long-lived locks).
	WordsBefore, WordsAfter int
}

// MultiPassage runs `passages` complete acquisitions per process on a
// long-lived lock under the fixed-seed random schedule of the gated
// workloads. It exercises instance switching and recycling; per-passage
// costs include both.
func MultiPassage(algo Algo, w, nprocs, passages int) (*MultiPassageResult, error) {
	m := rmr.NewMemory(rmr.CC, nprocs, nil)
	fn, err := locks.Build(m, string(algo), w, nprocs)
	if err != nil {
		return nil, err
	}
	res := &MultiPassageResult{WordsBefore: m.Size()}
	series := make([]Series, nprocs)
	l := NewPassageLog(nprocs)
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(gatedScheduleSeed))
	err = l.run(m, s, gatedStepBudget, func(i int) func() {
		p := m.Proc(i)
		h := fn(p)
		return func() {
			for k := 0; k < passages && l.Pass(p, h); k++ {
				series[i] = append(series[i], l.RMRs[i])
			}
		}
	})
	if err != nil {
		return nil, gatedErr(algo, err)
	}
	for _, s := range series {
		res.Passages = append(res.Passages, s...)
	}
	res.WordsAfter = m.Size()
	return res, nil
}
