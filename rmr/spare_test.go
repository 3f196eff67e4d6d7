//go:build go1.24

package rmr

import (
	"runtime"
	"runtime/debug"
	"testing"
	"weak"
)

// spareSet returns the spare visited set, or nil when there is none.
func spareSet() *visitedSet {
	spare.Lock()
	defer spare.Unlock()
	return spare.vs.Value()
}

// TestVisitedSetReused: an exploration takes the spare visited set the
// last one left, still holding that one's fingerprints and saturated and
// asked to grow here,
// explores as on a new set, and leaves it as the spare again; a collection
// frees a spare nothing else holds.
func TestVisitedSetReused(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only the explicit collection below
	spare.Lock()
	spare.vs = weak.Pointer[visitedSet]{}
	spare.Unlock()
	e := &Explorer{MaxSteps: 14, Reduction: SleepSets, Visited: true}
	want, err := e.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	held := spareSet()
	if held == nil || held.used.Load() == 0 {
		t.Fatal("the exploration left no spare set holding its fingerprints")
	}
	held.sat.Store(true)
	held.grow.Store(true)
	got, err := e.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Errorf("on the reused set: %+v, want %+v", got, want)
	}
	if spareSet() != held {
		t.Error("the second exploration did not reuse the spare set")
	}
	held = nil
	runtime.GC()
	if spareSet() != nil {
		t.Error("a collection left the spare set alive")
	}
}

// TestGrownVisitedSetNotKept: only a start-size set becomes the spare;
// a set that grew is dropped, and the next exploration starts small.
func TestGrownVisitedSetNotKept(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spare.Lock()
	spare.vs = weak.Pointer[visitedSet]{}
	spare.Unlock()
	vs := takeVisitedSet()
	vs.resize(2 * visitedMin)
	releaseVisitedSet(vs)
	if spareSet() != nil {
		t.Fatal("a grown set became the spare")
	}
	if vs = takeVisitedSet(); len(vs.slots) != visitedMin {
		t.Errorf("a new exploration's set has %d slots, want %d", len(vs.slots), visitedMin)
	}
	releaseVisitedSet(vs)
	if spareSet() != vs {
		t.Error("a start-size set did not become the spare")
	}
}
