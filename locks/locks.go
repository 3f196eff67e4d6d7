// Package locks is the single seam between the lock algorithms of this
// repository and everything that drives them: the experiment harness, the
// CLIs (locktest, rmrbench, rmrtrace), the benchmark matrix, and the
// registry-wide conformance suite.
//
// Every lock — the paper's one-shot lock and its long-lived transformation
// as well as the Table 1 baselines — is reachable only through the
// name→factory Registry in this package. A lock implementation lives in its
// own subpackage (locks/mcs, locks/scott, …), registers itself in an init
// function, and is wired into the build by one blank import in locks/all.
// Anything that imports locks/all can build any lock by name; the
// conformance suite and the benchmark matrix iterate the registry, so a new
// lock gets the whole test and benchmark battery without touching either.
//
// See DESIGN.md ("Adding a new lock in one file") for the walkthrough.
package locks

import "sublock/rmr"

// Abortable is the canonical per-process lock handle: the uniform interface
// the harness, the CLIs, and the conformance suite operate on.
//
// The abort signal is not part of the method set by design: in the paper's
// model the signal is an external event, not a shared-memory word, and it
// is delivered through the simulator (rmr.Proc.SignalAbort). Enter observes
// it via rmr.Proc.AbortSignal and returns false when the attempt was
// abandoned. Non-abortable locks (MCS) ignore the signal and always return
// true.
//
// A handle represents one process's program order and is not safe for
// concurrent use by multiple goroutines.
type Abortable interface {
	// Enter acquires the lock; false means the attempt aborted.
	Enter() bool
	// Exit releases the lock after a successful Enter.
	Exit()
}

// HandleFunc produces process p's handle to a built lock instance.
type HandleFunc func(p *rmr.Proc) Abortable

// Factory builds one lock instance in m, sized for capacity participants,
// and returns the per-process handle constructor. w is the tree arity for
// the paper's tree-based locks; locks without a tree ignore it. The memory
// may host fewer runners than capacity (the point-contention setup).
type Factory func(m *rmr.Memory, w, capacity int) (HandleFunc, error)

// Optional capability interfaces. A handle advertises a capability by
// implementing the interface; consumers type-assert and degrade gracefully
// when the assertion fails.

// Slotted is implemented by handles of FCFS queue locks that expose the
// queue slot their doorway step assigned (-1 before Enter). The doorway
// order defines the FCFS order.
type Slotted interface {
	Slot() int
}
