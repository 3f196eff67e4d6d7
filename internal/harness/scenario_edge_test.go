package harness

import (
	"reflect"
	"testing"

	"sublock/locks"
	"sublock/rmr"
)

func TestStormReverseOrderScott(t *testing.T) {
	// Reverse abort order preserves Scott's adoption chain; forward order
	// collapses it (each aborter adopts past the already-aborted prefix
	// before publishing). The waiter's passage cost must reflect that.
	fwd, err := AbortStorm(AlgoScott, DefaultW, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := AbortStorm(AlgoScott, DefaultW, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if rev.WaiterPassage < fwd.WaiterPassage+16 {
		t.Fatalf("reverse-order waiter = %d RMRs vs forward %d; expected a preserved chain ≈ +32",
			rev.WaiterPassage, fwd.WaiterPassage)
	}
}

func TestStormZeroAborters(t *testing.T) {
	// A storm with A=0 degenerates to a two-process handoff.
	res, err := AbortStorm(AlgoPaper, DefaultW, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aborted) != 0 {
		t.Fatalf("aborted series = %v, want empty", res.Aborted)
	}
	if res.HolderPassage > 8 || res.WaiterPassage > 8 {
		t.Fatalf("degenerate storm costs %d/%d, want small constants",
			res.HolderPassage, res.WaiterPassage)
	}
}

func TestStormHolderExitIsolated(t *testing.T) {
	res, err := AbortStorm(AlgoPaper, DefaultW, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.HolderExit <= 0 || res.HolderExit >= res.HolderPassage {
		t.Fatalf("HolderExit = %d of passage %d, want a proper sub-interval",
			res.HolderExit, res.HolderPassage)
	}
}

func TestQueueWorkloadDSMPaper(t *testing.T) {
	res, err := QueueWorkloadCost(rmr.DSM, rmr.Unit, AlgoPaper, DefaultW, 32)
	if err != nil {
		t.Fatal(err)
	}
	if max := res.Passages.Max(); max > 14 {
		t.Fatalf("DSM no-abort passage max = %d, want O(1) ≤ 14", max)
	}
}

func TestBuildCapTournamentHeight(t *testing.T) {
	// locks.Build must size the structures by capacity, not by runner count.
	m := rmr.NewMemory(rmr.CC, 2, nil)
	fn, err := locks.Build(m, string(AlgoTournament), DefaultW, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Proc(0)
	h := fn(p)
	before := p.RMRs()
	if !h.Enter() {
		t.Fatal("Enter failed")
	}
	h.Exit()
	// Uncontended passage pays 3 RMRs per level of the capacity-sized tree.
	if got := p.RMRs() - before; got != 3*10 {
		t.Fatalf("passage RMRs = %d, want 30 (capacity-height tree)", got)
	}
}

// TestTable1WorkloadsDeterministic: the Table 1 workloads run under the
// fixed-seed scheduler gate, so repeated runs agree exactly — including the
// Scott and tournament baselines, whose counts depend on how the waiters'
// spin re-reads interleave with the storm — and the Stats variants report
// the same results as the plain calls.
func TestTable1WorkloadsDeterministic(t *testing.T) {
	storm := func() *StormResult {
		res, err := AbortStorm(AlgoScott, DefaultW, 62, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	queue := func() *QueueResult {
		res, err := QueueWorkload(AlgoTournament, DefaultW, 64)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	firstStorm, firstQueue := storm(), queue()
	for run := 2; run <= 3; run++ {
		if got := storm(); !reflect.DeepEqual(got, firstStorm) {
			t.Errorf("scott storm run %d = %+v, want %+v", run, got, firstStorm)
		}
		if got := queue(); !reflect.DeepEqual(got, firstQueue) {
			t.Errorf("tournament queue run %d = %+v, want %+v", run, got, firstQueue)
		}
	}

	statsStorm, snap, err := AbortStormStats(rmr.CC, AlgoScott, DefaultW, 62, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || !reflect.DeepEqual(statsStorm, firstStorm) {
		t.Errorf("AbortStormStats = %+v (snapshot %v), want %+v", statsStorm, snap != nil, firstStorm)
	}
	statsQueue, snap, err := QueueWorkloadStats(rmr.CC, AlgoTournament, DefaultW, 64)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || !reflect.DeepEqual(statsQueue, firstQueue) {
		t.Errorf("QueueWorkloadStats = %+v (snapshot %v), want %+v", statsQueue, snap != nil, firstQueue)
	}
}
