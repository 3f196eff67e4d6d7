package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sublock/rmr"
)

// TestReplayTracedRecordsEvents: replaying a (non-violating) schedule of
// the exhaustive body must flight-record its events — phases included —
// and complete without a property violation.
func TestReplayTracedRecordsEvents(t *testing.T) {
	// An empty schedule makes ReplayPick take the first alternative at
	// every step: the leftmost schedule of the exploration tree.
	ring, err := ReplayTraced(rmr.CC, AlgoPaper, 4, 2, 0, nil, 4096, 32)
	if err != nil {
		t.Fatalf("leftmost schedule violated a property: %v", err)
	}
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("flight recorder captured no events")
	}
	if ring.Total() <= int64(len(events)) && len(events) == 32 {
		t.Fatal("ring reports no overflow yet is full") // impossible: Total ≥ len
	}
	sawPhase, sawLabel := false, false
	for _, ev := range events {
		if ev.Op == rmr.OpPhase {
			sawPhase = true
		}
		if ev.Label != 0 {
			sawLabel = true
		}
	}
	if !sawPhase {
		t.Error("no phase-transition events in the flight recording")
	}
	if !sawLabel {
		t.Error("no labeled addresses in the flight recording")
	}
}

// TestReplayTracedStall: a replay that runs out of budget surfaces the
// step-limit error the exploration would have pruned.
func TestReplayTracedStall(t *testing.T) {
	_, err := ReplayTraced(rmr.CC, AlgoPaper, 4, 2, 0, nil, 3, 16)
	if err == nil || !errors.Is(err, rmr.ErrStepLimit) && !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step-limit error", err)
	}
}

// TestTracerDoesNotChangeExploration: an observer must not change which
// states the visited-state reduction tells apart, so exploring the
// benchmark's verification configuration with a no-op tracer installed
// reports exactly the counts of the untraced exploration.
func TestTracerDoesNotChangeExploration(t *testing.T) {
	cfg := ExploreConfig{
		Model: rmr.CC, Algo: AlgoPaper, W: 4, N: 3, Aborters: 1,
		MaxSteps: 18, Workers: 1, Reduction: rmr.SleepSets, Visited: true,
	}
	run := func(tracer rmr.Tracer) rmr.Result {
		body := exhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters, tracer, rewindable(cfg.Algo))
		res, err := cfg.explorer().Run(cfg.Procs(), body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(func(rmr.Event) {})
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced exploration: explored %d, pruned %d, equivalent %d, visited hits %d; untraced: %d, %d, %d, %d",
			traced.Explored, traced.Pruned, traced.Equivalent, traced.VisitedHits,
			plain.Explored, plain.Pruned, plain.Equivalent, plain.VisitedHits)
	}
}

// TestVisitedHistoryHasNoFixedPoint: a process whose first operation reads
// 0 at address 0 must not fingerprint like one that has not started. When
// it did, visited caching merged such states and cut subtrees nobody
// explored, so tas at this configuration reported fewer explored schedules
// than its visited set implies, varying with the worker count.
func TestVisitedHistoryHasNoFixedPoint(t *testing.T) {
	cfg := ExploreConfig{Model: rmr.CC, Algo: "tas", W: 4, N: 3, MaxSteps: 12, Visited: true}
	var want int
	for i := 0; i < 20; i++ {
		for _, w := range []int{1, 2} {
			cfg.Workers = w
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				want = res.Explored
			} else if res.Explored != want {
				t.Fatalf("run %d, %d workers: %d explored, want %d", i, w, res.Explored, want)
			}
		}
	}
	t.Logf("%d explored at 1 and 2 workers", want)
}
