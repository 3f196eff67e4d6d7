package harness

import (
	"bytes"
	"strings"
	"testing"

	"sublock/rmr"
)

// TestAbortStormStatsPhases is the observability acceptance check: the
// per-phase, per-label attribution of the paper's lock under the abort
// storm must exhibit the paper's cost structure — an O(1) doorway
// regardless of contention, and an exit-path handoff whose tree-traversal
// cost grows like O(log_W A) in the number of aborters A, far below
// linearly.
func TestAbortStormStatsPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const holder = 0
	run := func(aborters int) *rmr.Snapshot {
		res, snap, err := AbortStormStats(rmr.CC, AlgoPaper, DefaultW, aborters, false)
		if err != nil {
			t.Fatalf("aborters=%d: %v", aborters, err)
		}
		if snap == nil {
			t.Fatalf("aborters=%d: nil snapshot", aborters)
		}
		// The instrumented run must report the same RMR totals an
		// uninstrumented run does: observation must not perturb the metric.
		plain, err := AbortStorm(AlgoPaper, DefaultW, aborters, false)
		if err != nil {
			t.Fatalf("aborters=%d plain: %v", aborters, err)
		}
		if plain.HolderPassage != res.HolderPassage || plain.HolderExit != res.HolderExit {
			t.Fatalf("aborters=%d: instrumented holder cost (%d, %d) != plain (%d, %d)",
				aborters, res.HolderPassage, res.HolderExit, plain.HolderPassage, plain.HolderExit)
		}
		return snap
	}

	small := run(6)
	large := run(384) // 64× the aborters

	// The holder's doorway is contention-independent: O(1) RMRs.
	dSmall := small.ProcPhaseRMRs(holder, rmr.PhaseDoorway)
	dLarge := large.ProcPhaseRMRs(holder, rmr.PhaseDoorway)
	if dSmall > 10 || dLarge > 10 {
		t.Errorf("holder doorway RMRs = %d (small), %d (large); want O(1) ≤ 10", dSmall, dLarge)
	}
	if dLarge > dSmall+2 {
		t.Errorf("holder doorway RMRs grew with contention: %d → %d", dSmall, dLarge)
	}

	// The holder's exit-phase tree traversal (the FindNext ascent/descent
	// over the abandonment tree) is the adaptive part: with 64× the
	// aborters it may grow by about one extra tree level — far less than
	// linearly. Allow a generous constant factor; a linear baseline would
	// grow ~64×.
	exitTreeSmall := small.ProcPhaseLabelRMRs(holder, rmr.PhaseExit, "tree/")
	exitTreeLarge := large.ProcPhaseLabelRMRs(holder, rmr.PhaseExit, "tree/")
	if exitTreeLarge == 0 {
		t.Fatal("no exit-phase tree RMRs attributed to the holder; labeling or phase plumbing broken")
	}
	if exitTreeSmall > 0 && exitTreeLarge > 8*exitTreeSmall {
		t.Errorf("holder exit-phase tree RMRs grew %d → %d (>8×) for 64× aborters; want O(log_W A)",
			exitTreeSmall, exitTreeLarge)
	}

	// Every aborter's passage is accounted: passages = aborters' attempts
	// + holder + waiter, each finishing exactly once.
	if got, want := large.Passages+large.AbortedPassages, int64(384+2); got != want {
		t.Errorf("finished passages = %d, want %d", got, want)
	}
	if large.AbortedPassages == 0 {
		t.Error("no aborted passages recorded in an abort storm")
	}

	// The text report renders and mentions the phases and tree labels.
	var buf bytes.Buffer
	if err := large.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"doorway", "exit", "tree/level1", "passages:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestQueueWorkloadStats checks the no-abort scenario's attribution: every
// passage completes, none aborts, and the per-phase split accounts for the
// whole RMR total.
func TestQueueWorkloadStats(t *testing.T) {
	const nprocs = 16
	res, snap, err := QueueWorkloadStats(rmr.CC, AlgoPaper, DefaultW, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.AbortedPassages != 0 {
		t.Errorf("aborted passages = %d, want 0", snap.AbortedPassages)
	}
	if snap.Passages != int64(nprocs) {
		t.Errorf("completed passages = %d, want %d", snap.Passages, nprocs)
	}
	var phaseSum int64
	for ph := rmr.Phase(0); ph < rmr.NumPhases; ph++ {
		phaseSum += snap.PhaseRMRs(ph)
	}
	if phaseSum != snap.TotalRMRs() {
		t.Errorf("per-phase RMRs sum to %d, total is %d", phaseSum, snap.TotalRMRs())
	}
	var total int64
	for _, c := range res.Passages {
		total += c
	}
	// Passage costs measured by the harness equal the stats histogram sum.
	if snap.PassageRMRs.Sum != total {
		t.Errorf("stats passage RMR sum = %d, harness total = %d", snap.PassageRMRs.Sum, total)
	}
}
