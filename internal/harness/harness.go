// Package harness builds the locks under comparison, drives the paper's
// workloads against them on the RMR-metered memory, and formats the results
// as the tables and figure series of the paper's evaluation (Table 1 and
// the §4/§6 figures). It backs both the root-level benchmark suite and the
// cmd/rmrbench CLI.
//
// Every lock is built through the locks registry (sublock/locks): the
// harness carries no per-lock code and drives any registered name. The
// blank import of locks/all below wires in every implementation.
package harness

import (
	"sublock/locks"
	_ "sublock/locks/all"
)

// Handle is the uniform per-process lock interface the drivers operate on:
// the canonical locks.Abortable seam.
type Handle = locks.Abortable

// HandleFn produces process p's handle to a built lock.
type HandleFn = locks.HandleFunc

// Algo identifies a lock algorithm in experiments: a name in the locks
// registry.
type Algo string

// The algorithms under comparison. The four "table1" algorithms correspond
// to the rows of the paper's Table 1; the rest are anchors and ablations.
// The constants exist for compile-checked experiment code; any registered
// name is equally valid.
const (
	// AlgoPaper is the paper's one-shot lock (§3) with AdaptiveFindNext.
	AlgoPaper Algo = "paper"
	// AlgoPaperPlain is the one-shot lock with the non-adaptive FindNext
	// (Algorithm 4.1), the ablation target of Figure 4.
	AlgoPaperPlain Algo = "paper-plain"
	// AlgoPaperLL is the long-lived transformation (§6), unbounded variant.
	AlgoPaperLL Algo = "paper-longlived"
	// AlgoPaperLLBounded is the long-lived transformation with the §6.2
	// bounded memory management.
	AlgoPaperLLBounded Algo = "paper-longlived-bounded"
	// AlgoScott is the Scott-style abortable CLH queue lock (Table 1 row 1).
	AlgoScott Algo = "scott"
	// AlgoTournament is the Jayanti-shaped Θ(log N) arbitration-tree lock
	// (Table 1 row 2).
	AlgoTournament Algo = "tournament"
	// AlgoLinearScan is the Lee-shaped linear-skip queue lock (Table 1 row 3).
	AlgoLinearScan Algo = "linearscan"
	// AlgoMCS is the non-abortable MCS lock (§1 anchor).
	AlgoMCS Algo = "mcs"
	// AlgoTAS is the abortable test-and-test-and-set lock (unfair anchor).
	AlgoTAS Algo = "tas"
)

// Table1Algos are the abortable algorithms of the paper's Table 1, in the
// paper's row order, with the paper's lock last.
var Table1Algos = []Algo{AlgoScott, AlgoTournament, AlgoLinearScan, AlgoPaper}

// Abortable reports whether the algorithm supports aborting waiters (per
// its registry entry); workloads that deliver abort signals must skip
// non-abortable locks. Unknown names report true so the error surfaces at
// locks.Build with the full registry listing instead of here.
func (a Algo) Abortable() bool {
	info, ok := locks.Lookup(string(a))
	return !ok || info.Abortable
}
