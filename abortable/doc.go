// Package abortable provides deterministic abortable mutual exclusion with
// sublogarithmic adaptive RMR complexity, implementing the algorithm of
// Alon & Morrison, "Deterministic Abortable Mutual Exclusion with
// Sublogarithmic Adaptive RMR Complexity" (PODC 2018) on Go's native
// atomics.
//
// An abortable lock is a mutual-exclusion lock whose waiters can abandon
// their acquisition attempt in a bounded number of their own steps — the
// primitive behind responsive deadlock recovery, priority handoff, and
// work-stealing under serialization (§1 of the paper). Unlike a try-lock,
// an abortable lock lets a waiter join the queue and only later decide to
// leave, preserving FCFS-style handoff efficiency on the fast path.
//
// # The algorithm
//
// The lock is an array-based queue lock (fetch-and-add doorway, per-slot
// grant flags) augmented with a 64-ary tree that tracks abandoned queue
// slots. On machines with 64-bit words this gives, in the cache-coherent
// RMR cost model the paper analyzes:
//
//   - O(1) remote memory references per passage when nobody aborts,
//   - O(log₆₄ A) per passage when A processes abort during it,
//   - bounded abort: an abort completes within O(log₆₄ N) own steps.
//
// A generic transformation (§6 of the paper) turns the one-shot queue into
// a long-lived lock by atomically switching to a fresh one-shot instance
// whenever the old one quiesces. Retired instances are recycled as in
// §6.2: each handle publishes the instance it may touch, and a switch
// resets and reinstalls a retired instance that no handle publishes. A
// Lock therefore holds at most MaxHandles+1 instances, and once they
// exist an instance switch allocates nothing.
//
// # Usage
//
// Each participating goroutine obtains a Handle (its "process" identity)
// and then acquires through it:
//
//	lk := abortable.New(abortable.Config{MaxHandles: 64})
//	h, _ := lk.NewHandle()
//	...
//	if h.Enter() {           // or h.EnterContext(ctx)
//	    defer h.Exit()
//	    // critical section
//	}
//
// Abortion is requested asynchronously — from a watchdog, a prioritizer, a
// timeout — via h.Abort(), which makes the pending (or next) Enter return
// false in a bounded number of steps.
//
// The package also ships SpinTry, the test-and-test-and-set reference lock
// its benchmark suite compares against. (The MCS queue-lock anchor lives in
// the simulator, as the registered "mcs" lock under locks/mcs.)
package abortable
