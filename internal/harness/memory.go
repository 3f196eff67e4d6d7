package harness

import (
	"sync"

	"sublock/rmr"
)

// newMemory builds the shared memory for an RMR-measurement scenario,
// configured by setupMemory.
func newMemory(model rmr.Model, nprocs int) *rmr.Memory {
	return setupMemory(rmr.NewMemory(model, nprocs, nil))
}

// setupMemory applies the harness's memory configuration to a memory in
// its NewMemory state. The wait policy is pinned to dense yielding
// (rmr.WaitYield): the Table 1 columns count RMRs in the analytic CC/DSM
// model, where a waiter observes every invalidation of its spin location.
// The default adaptive policy may park a waiter through several mutations
// and coalesce those observations, which undercounts — and makes the
// counts schedule-dependent. Dense yielding keeps every measured passage's
// RMR count exact and deterministic. (Gated runs are unaffected either
// way: Wait is a no-op under a gate.)
func setupMemory(m *rmr.Memory) *rmr.Memory {
	m.SetWaitPolicy(rmr.WaitYield)
	return m
}

// replayMemories holds reset memories between the exhaustive bodies'
// replays, which build a fresh lock per replay but need not allocate a
// fresh memory for it.
var replayMemories sync.Pool

// replayMemory is newMemory for a body that hands the memory back with
// recycleMemory when its run is over: it reuses a pooled memory of the same
// shape when there is one.
func replayMemory(model rmr.Model, nprocs int) *rmr.Memory {
	m, ok := replayMemories.Get().(*rmr.Memory)
	if !ok || m.Model() != model || m.NumProcs() != nprocs {
		m = rmr.NewMemory(model, nprocs, nil)
	}
	return setupMemory(m)
}

// recycleMemory resets m and pools it for the next replayMemory. The reset
// comes first, so a pooled memory holds no reference to the scheduler that
// gated it (nor, through it, to an exploration's visited set). No process
// may still be using m.
func recycleMemory(m *rmr.Memory) {
	m.Reset()
	replayMemories.Put(m)
}
