package harness

import (
	"fmt"

	"sublock/internal/longlived"
	"sublock/internal/oneshot"
	"sublock/internal/tree"
	"sublock/locks"
	"sublock/rmr"
)

// DefaultW is the tree arity used by experiments that do not sweep W. The
// paper's analysis assumes W = Θ(log N); W=8 keeps tree heights in the 2–4
// range over the Ns the experiments sweep, so the log_W shapes are visible.
const DefaultW = 8

// Table1WorstCase regenerates Table 1's "Worst-case" column (E1): all but
// one waiter abort, so A_i = N−2, and the handoff passage pays each
// algorithm's worst case — O(log_W N) for the paper's lock, Θ(log₂ N) for
// the tournament, Θ(N) for the linear scan, and Θ(N) adoption for the
// Scott-style lock (aborts delivered back-to-front, its worst order).
func Table1WorstCase(ns []int, w int) (*Table, error) {
	t := &Table{
		Title:   "E1 — Table 1 “Worst-case” column: RMRs of the handoff passage, all-but-one abort",
		Note:    fmt.Sprintf("cells: holder-passage / waiter-passage RMRs; W=%d for the paper's lock", w),
		Columns: []string{"algorithm"},
	}
	for _, n := range ns {
		t.Columns = append(t.Columns, fmt.Sprintf("N=%d", n))
	}
	for _, algo := range Table1Algos {
		row := []string{string(algo)}
		for _, n := range ns {
			res, err := AbortStorm(algo, w, n-2, algo == AlgoScott)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d / %d", res.HolderPassage, res.WaiterPassage))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table1NoAborts regenerates Table 1's "No aborts" column (E2): a full
// queue drains with nobody aborting. Every queue lock pays O(1) per
// passage; the tournament pays Θ(log₂ N) — the gap the paper's lock closes.
func Table1NoAborts(ns []int, w int) (*Table, error) {
	t := &Table{
		Title:   "E2 — Table 1 “No aborts” column: RMRs per complete passage, full queue, zero aborts",
		Note:    fmt.Sprintf("cells: max (mean) over all passages; W=%d for the paper's lock", w),
		Columns: []string{"algorithm"},
	}
	for _, n := range ns {
		t.Columns = append(t.Columns, fmt.Sprintf("N=%d", n))
	}
	algos := append([]Algo{AlgoMCS}, Table1Algos...)
	for _, algo := range algos {
		row := []string{string(algo)}
		for _, n := range ns {
			res, err := QueueWorkload(algo, w, n)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Passages.Cell())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table1Adaptive regenerates Table 1's "Adaptive bound" column (E3): N is
// fixed and the number of aborters A sweeps, exposing O(log_W A) for the
// paper's lock against Θ(A) for the linear scan and the flat Θ(log N) of
// the tournament.
func Table1Adaptive(n, w int, as []int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E3 — Table 1 “Adaptive bound” column: handoff passage RMRs vs aborts, N=%d", n),
		Note: "cells: holder-passage RMRs (max aborted-attempt RMRs); " +
			fmt.Sprintf("W=%d for the paper's lock", w),
		Columns: []string{"algorithm"},
	}
	for _, a := range as {
		t.Columns = append(t.Columns, fmt.Sprintf("A=%d", a))
	}
	for _, algo := range Table1Algos {
		row := []string{string(algo)}
		for _, a := range as {
			if a > n-2 {
				row = append(row, "—")
				continue
			}
			res, err := AbortStorm(algo, w, a, algo == AlgoScott)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d (%d)", res.HolderPassage, res.Aborted.Max()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table1Space regenerates Table 1's "Space" column (E4): words allocated
// per algorithm, before and after a churn workload — O(N) for the one-shot
// locks, growth without bound for Scott-style allocation and the unbounded
// long-lived variant, constant O(N²)-bounded for the §6.2 variant.
func Table1Space(ns []int, w int) (*Table, error) {
	t := &Table{
		Title:   "E4 — Table 1 “Space” column: shared words after construction → after one storm",
		Note:    fmt.Sprintf("aborters=N−2; W=%d for the paper's locks", w),
		Columns: []string{"algorithm"},
	}
	for _, n := range ns {
		t.Columns = append(t.Columns, fmt.Sprintf("N=%d", n))
	}
	for _, algo := range append([]Algo{}, AlgoScott, AlgoTournament, AlgoLinearScan, AlgoPaper, AlgoPaperLLBounded) {
		row := []string{string(algo)}
		for _, n := range ns {
			m := rmr.NewMemory(rmr.CC, n, nil)
			if _, err := locks.Build(m, string(algo), w, n); err != nil {
				return nil, err
			}
			before := m.Size()
			res, err := AbortStorm(algo, w, n-2, false)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d → %d", before, res.Words))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// WSweep regenerates the §1 headline tradeoff (E5): with N fixed and all
// but one waiter aborting, the handoff cost tracks log_W N as W sweeps —
// the time/space tradeoff that makes the lock's RMR cost O(log N/log log N)
// at W=Θ(log N) and O(1) at W=N^ε.
func WSweep(n int, ws []int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("E5 — RMR cost vs word width W (N=%d, all-but-one abort)", n),
		Note:    "paper's one-shot lock; tree height H = ⌈log_W N⌉ drives the cost",
		Columns: []string{"W", "tree height", "holder passage", "waiter passage", "max aborted"},
	}
	for _, w := range ws {
		res, err := AbortStorm(AlgoPaper, w, n-2, false)
		if err != nil {
			return nil, err
		}
		m := rmr.NewMemory(rmr.CC, 1, nil)
		tr, err := tree.New(m, tree.Config{W: w, N: n})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", tr.Height()),
			fmt.Sprintf("%d", res.HolderPassage),
			fmt.Sprintf("%d", res.WaiterPassage),
			fmt.Sprintf("%d", res.Aborted.Max()),
		)
	}
	return t, nil
}

// Fig2Scenarios reproduces the three FindNext outcomes of Figure 2 (E6)
// with scripted schedules on a bare tree and reports outcome plus RMR cost.
func Fig2Scenarios() (*Table, error) {
	t := &Table{
		Title:   "E6 — Figure 2: the three FindNext(p) scenarios (W=2, N=8, p=0)",
		Columns: []string{"scenario", "outcome", "FindNext RMRs"},
	}

	// (a) Normal: leaves 1,2 removed; FindNext(0) ascends and returns 3.
	{
		m := rmr.NewMemory(rmr.CC, 2, nil)
		tr, err := tree.New(m, tree.Config{W: 2, N: 8})
		if err != nil {
			return nil, err
		}
		setup := m.Proc(1)
		tr.Remove(setup, 1)
		tr.Remove(setup, 2)
		p := m.Proc(0)
		before := p.RMRs()
		q, out := tr.FindNext(p, 0)
		t.AddRow("(a) successor found", fmt.Sprintf("%v (leaf %d)", out, q),
			fmt.Sprintf("%d", p.RMRs()-before))
	}

	// (b) ⊥: every leaf right of 0 removed; the ascent reaches the root
	// without finding a clear bit.
	{
		m := rmr.NewMemory(rmr.CC, 2, nil)
		tr, err := tree.New(m, tree.Config{W: 2, N: 8})
		if err != nil {
			return nil, err
		}
		setup := m.Proc(1)
		for leaf := 1; leaf < 8; leaf++ {
			tr.Remove(setup, leaf)
		}
		p := m.Proc(0)
		before := p.RMRs()
		_, out := tr.FindNext(p, 0)
		t.AddRow("(b) all abandoned", out.String(), fmt.Sprintf("%d", p.RMRs()-before))
	}

	// (c) ⊤: the searcher descends into a subtree that a concurrent Remove
	// empties mid-flight (the crossed-paths case).
	{
		c := rmr.NewController(2)
		m := rmr.NewMemory(rmr.CC, 2, nil)
		tr, err := tree.New(m, tree.Config{W: 2, N: 8})
		if err != nil {
			return nil, err
		}
		m.SetGate(c)
		// Leaf 1 pre-removed so FindNext(0) must leave the first subtree.
		var rmrs int64
		var out tree.Outcome
		c.Go(1, func() {
			p := m.Proc(1)
			tr.Remove(p, 1)
			tr.Remove(p, 2) // test-style: one proc plays several removers
			tr.Remove(p, 3)
		})
		c.StepN(1, 2) // Remove(1) (1 F&A, stops) + Remove(2)'s first F&A
		c.Go(0, func() {
			p := m.Proc(0)
			before := p.RMRs()
			_, out = tr.FindNext(p, 0)
			rmrs = p.RMRs() - before
		})
		// Searcher ascends: node{0,1} (bit1 set), node{0..3} (bit for {2,3}
		// clear — Remove(3) not there yet), then pauses before descending.
		c.StepN(0, 2)
		// Remove(3): its F&A empties node {2,3}; pause before it ascends.
		c.Step(1)
		// Searcher descends into node {2,3}: EMPTY → ⊤.
		c.Finish(0, 100)
		c.Wait()
		t.AddRow("(c) crossed paths", out.String(), fmt.Sprintf("%d", rmrs))
	}
	return t, nil
}

// Fig4Adaptive regenerates the Figure 4 comparison (E7): plain FindNext
// ascends to the lowest common ancestor (the root here) while the adaptive
// ascent sidesteps to the right cousin, independent of N.
func Fig4Adaptive(ns []int, w int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("E7 — Figure 4: FindNext vs AdaptiveFindNext ascent cost (W=%d)", w),
		Note:    "p = rightmost leaf of the leftmost level-(H−1) subtree; successor is adjacent",
		Columns: []string{"N", "tree height", "FindNext RMRs", "AdaptiveFindNext RMRs"},
	}
	for _, n := range ns {
		m := rmr.NewMemory(rmr.CC, 2, nil)
		tr, err := tree.New(m, tree.Config{W: w, N: n})
		if err != nil {
			return nil, err
		}
		p := n/w - 1
		plainProc, adaptProc := m.Proc(0), m.Proc(1)
		before := plainProc.RMRs()
		if q, out := tr.FindNext(plainProc, p); out != tree.Found || q != p+1 {
			return nil, fmt.Errorf("fig4: FindNext(%d) = (%d,%v)", p, q, out)
		}
		plain := plainProc.RMRs() - before
		before = adaptProc.RMRs()
		if q, out := tr.AdaptiveFindNext(adaptProc, p); out != tree.Found || q != p+1 {
			return nil, fmt.Errorf("fig4: AdaptiveFindNext(%d) = (%d,%v)", p, q, out)
		}
		adaptive := adaptProc.RMRs() - before
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", tr.Height()),
			fmt.Sprintf("%d", plain), fmt.Sprintf("%d", adaptive))
	}
	return t, nil
}

// LongLivedOverhead prices the §6 transformation (E9): per-passage RMRs of
// the raw one-shot lock vs the long-lived lock in both memory-management
// modes, under a multi-passage workload that forces instance switching.
func LongLivedOverhead(nprocs, passages, w int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E9 — §6 transformation overhead: per-passage RMRs (N=%d, %d passages/process)", nprocs, passages),
		Note: "one-shot row: single passage per process (by definition);\n" +
			"long-lived rows include instance switching and (bounded) recycling",
		Columns: []string{"variant", "max (mean)", "p99", "words before → after"},
	}
	{
		res, err := QueueWorkload(AlgoPaper, w, nprocs)
		if err != nil {
			return nil, err
		}
		t.AddRow("one-shot (§3)", res.Passages.Cell(),
			fmt.Sprintf("%d", res.Passages.Percentile(0.99)),
			fmt.Sprintf("%d → %d", res.Words, res.Words))
	}
	for _, algo := range []Algo{AlgoPaperLL, AlgoPaperLLBounded} {
		res, err := MultiPassage(algo, w, nprocs, passages)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(algo), res.Passages.Cell(),
			fmt.Sprintf("%d", res.Passages.Percentile(0.99)),
			fmt.Sprintf("%d → %d", res.WordsBefore, res.WordsAfter))
	}
	return t, nil
}

// DSMVariant prices the §3 DSM indirection (E10): a waiter spins for a
// fixed number of scheduler steps before the holder releases. With the
// announce/spin-bit indirection the wait costs O(1) RMRs; spinning directly
// on the (remote) go slot costs one RMR per re-read.
func DSMVariant(spinSteps []int) (*Table, error) {
	t := &Table{
		Title:   "E10 — §3 DSM variant: waiter RMRs after S spin steps",
		Note:    "naive = spin directly on the remote go slot; indirection = announce + local spin bit",
		Columns: []string{"S (spin steps)", "naive DSM spin", "announce indirection"},
	}
	run := func(naive bool, steps int) (int64, error) {
		c := rmr.NewController(2)
		m := rmr.NewMemory(rmr.DSM, 2, nil)
		lk, err := oneshot.New(m, oneshot.Config{W: 8, N: 2, NaiveDSM: naive})
		if err != nil {
			return 0, err
		}
		h0, h1 := lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1))
		m.SetGate(c)
		c.Go(0, func() {
			h0.Enter()
			h0.Exit()
		})
		c.StepN(0, 3) // in the CS
		var ok bool
		c.Go(1, func() { ok = h1.Enter() })
		c.StepN(1, steps)
		waiting := m.Proc(1).RMRs()
		c.Finish(0, 10_000)
		c.Finish(1, 10_000)
		c.Wait()
		if !ok {
			return 0, fmt.Errorf("dsm: waiter failed")
		}
		return waiting, nil
	}
	for _, s := range spinSteps {
		naive, err := run(true, s)
		if err != nil {
			return nil, err
		}
		indirect, err := run(false, s)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%d", naive), fmt.Sprintf("%d", indirect))
	}
	return t, nil
}

// MCSAnchor verifies the §1 calibration (E11): MCS pays O(1) RMRs per
// passage at every N, the bar the abortable lock is measured against.
func MCSAnchor(ns []int) (*Table, error) {
	t := &Table{
		Title:   "E11 — MCS anchor: per-passage RMRs of the non-abortable MCS queue lock",
		Columns: []string{"N", "max (mean)"},
	}
	for _, n := range ns {
		res, err := QueueWorkload(AlgoMCS, DefaultW, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), res.Passages.Cell())
	}
	return t, nil
}

// SpinNodeAblation measures the §6 spin-node argument (E13): a process
// waiting for the current instance to be switched pays O(1) RMRs with spin
// nodes, but one RMR per descriptor change without them. Churners cycle
// abort attempts to shake LockDesc while the measured process waits.
//
// The schedule is scripted on a Controller, so every cell is exact: after
// each churner step the waiter is granted one step, so it re-reads its
// wait word after every descriptor F&A and observes every invalidation the
// CC model charges.
func SpinNodeAblation(churns []int) (*Table, error) {
	t := &Table{
		Title:   "E13 — §6 ablation: RMRs of a process waiting for an instance switch",
		Note:    "churn = LockDesc refcount changes while waiting (2 per aborted attempt)",
		Columns: []string{"churn cycles", "descriptor polling", "spin nodes (paper)"},
	}
	const budget = 10_000
	run := func(noSpinNodes bool, churn int) (int64, error) {
		// One process per churn cycle: a process that already used the
		// current instance is itself gated by the lines 57–61 wait, so it
		// cannot churn the descriptor twice within one instance epoch.
		nprocs := churn + 2
		c := rmr.NewController(nprocs)
		m := rmr.NewMemory(rmr.CC, nprocs, nil)
		lk, err := longlived.New(m, longlived.Config{
			W: 8, N: nprocs, NoSpinNodes: noSpinNodes,
		})
		if err != nil {
			return 0, err
		}
		waiterP := m.Proc(0)
		waiter, blocker := lk.Handle(waiterP), lk.Handle(m.Proc(1))
		m.SetGate(c)
		// stepUntil grants pid steps until cond holds.
		stepUntil := func(pid int, cond func() bool) error {
			for i := 0; !cond(); i++ {
				if i == budget || !c.Step(pid) {
					return fmt.Errorf("ablation: process %d stuck", pid)
				}
			}
			return nil
		}

		// The waiter completes a passage on the current instance while the
		// blocker pins the refcount: blocker enqueues behind the waiter and
		// holds the CS for as long as it is granted no step.
		var waiterIn, firstDone, reentered bool
		c.Go(0, func() {
			if waiterIn = waiter.Enter(); waiterIn {
				waiter.Exit()
				firstDone = true
				reentered = waiter.Enter()
				waiter.Exit()
			}
		})
		if err := stepUntil(0, func() bool { return waiterIn }); err != nil {
			return 0, err
		}
		var blockerIn, blockerOK bool
		c.Go(1, func() {
			if blockerIn = blocker.Enter(); blockerIn {
				blocker.Exit()
				blockerOK = true
			}
		})
		c.StepN(1, enqueueThreshold) // past its doorway: refcount held
		// The waiter's Exit leaves the refcount > 0: no switch, so its
		// oldSpn names the current spin node.
		if err := stepUntil(0, func() bool { return firstDone }); err != nil {
			return 0, err
		}
		if err := stepUntil(1, func() bool { return blockerIn }); err != nil {
			return 0, err
		}

		// The waiter re-enters: the descriptor still names the instance it
		// used, so it waits for the switch. Measure its RMRs from here:
		// one step reads the descriptor, one more starts the wait.
		waitStart := waiterP.RMRs()
		c.StepN(0, 2)

		// Churn the descriptor: each aborted attempt F&As the refcount up
		// and down, invalidating a descriptor-polling waiter's cached copy
		// twice.
		for i := 0; i < churn; i++ {
			pid := 2 + i
			churner := lk.Handle(m.Proc(pid))
			m.Proc(pid).SignalAbort()
			var entered bool
			c.Go(pid, func() { entered = churner.Enter() })
			for n := 0; ; n++ {
				if n == budget {
					return 0, fmt.Errorf("ablation: churner %d stuck", pid)
				}
				live := c.Step(pid)
				c.Step(0)
				if !live {
					break
				}
			}
			if entered {
				return 0, fmt.Errorf("ablation: churner entered the held lock")
			}
		}
		waitCost := waiterP.RMRs() - waitStart

		// Release the blocker: its cleanup drops the refcount to zero,
		// switches instances, and the waiter completes on the fresh one.
		if err := c.WaitBudget(budget); err != nil {
			return 0, err
		}
		if !blockerOK || !reentered {
			return 0, fmt.Errorf("ablation: blocker ok=%v, waiter ok=%v", blockerOK, reentered)
		}
		return waitCost, nil
	}
	for _, churn := range churns {
		polling, err := run(true, churn)
		if err != nil {
			return nil, err
		}
		spinNodes, err := run(false, churn)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", churn), fmt.Sprintf("%d", polling), fmt.Sprintf("%d", spinNodes))
	}
	return t, nil
}
