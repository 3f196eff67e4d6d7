package harness

import (
	"runtime"
	"testing"

	"sublock/rmr"
)

// TestExploreReplayAllocations guards the per-replay heap cost of the
// exhaustive explorer on the paper's lock: with the replay memory recycled
// and the process coroutines reused, a replay allocates only the lock it
// builds and the body's bookkeeping. Rebuilding the memory and spawning
// process goroutines per replay cost 26 objects.
func TestExploreReplayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const maxObjects = 16
	cfg := ExploreConfig{
		Model: rmr.CC, Algo: AlgoPaper, W: 4, N: 3, Aborters: 1,
		MaxSteps: 14, Reduction: rmr.SleepSets, Visited: true,
	}
	// The first pass fills the memory pool.
	if _, err := Explore(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Explore(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays() == 0 {
		t.Fatal("exploration replayed nothing")
	}
	perReplay := float64(after.Mallocs-before.Mallocs) / float64(res.Replays())
	if perReplay > maxObjects {
		t.Errorf("%.1f heap objects per replay over %d replays, want at most %d",
			perReplay, res.Replays(), maxObjects)
	}
}
