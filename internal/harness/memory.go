package harness

import (
	"sync"

	"sublock/rmr"
)

// replayMemories holds reset memories between the exhaustive bodies'
// replays, which build a fresh lock per replay but need not allocate a
// fresh memory for it.
var replayMemories sync.Pool

// replayMemory returns a memory in its NewMemory state for a body that
// hands it back with recycleMemory when its run is over: it reuses a pooled
// memory of the same shape when there is one.
func replayMemory(model rmr.Model, nprocs int) *rmr.Memory {
	m, ok := replayMemories.Get().(*rmr.Memory)
	if !ok || m.Model() != model || m.NumProcs() != nprocs {
		m = rmr.NewMemory(model, nprocs, nil)
	}
	return m
}

// recycleMemory resets m and pools it for the next replayMemory. The reset
// comes first, so a pooled memory holds no reference to the scheduler that
// gated it (nor, through it, to an exploration's visited set). No process
// may still be using m.
func recycleMemory(m *rmr.Memory) {
	m.Reset()
	replayMemories.Put(m)
}
