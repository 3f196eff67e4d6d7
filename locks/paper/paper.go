// Package paper registers the paper's lock algorithms — the §3 one-shot
// abortable lock (adaptive and plain FindNext variants) and the §6
// long-lived transformation (unbounded and §6.2 bounded memory management)
// — in the locks registry, re-homing their constructors behind the
// canonical factory signature.
//
// The implementations live in internal/oneshot and internal/longlived; this
// package is only the seam that makes them buildable by name, exactly like
// every baseline.
package paper

import (
	"sublock/internal/longlived"
	"sublock/internal/oneshot"
	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "paper",
		Summary:   "the paper's §3 one-shot abortable lock with AdaptiveFindNext: O(1) abort-free, O(log_W A) adaptive (Table 1 row 4)",
		Abortable: true,
		OneShot:   true,
		Labels:    []string{"oneshot/", "tree/"},
		// The §3 tree registers processes at id-determined leaves (the
		// split trees index by id); permuting ids moves processes across
		// the tree, so runs are not invariant under id permutation.
		IDSymmetric: false,
		Rewindable:  true,
		New:         oneShotFactory(true),
	})
	locks.Register(locks.Info{
		Name:      "paper-plain",
		Summary:   "the one-shot lock with the non-adaptive FindNext (Algorithm 4.1), the Figure 4 ablation",
		Abortable: true,
		OneShot:   true,
		Labels:    []string{"oneshot/", "tree/"},
		// Same id-determined leaf layout as "paper"; FindNext adaptivity
		// does not change where ids live in the tree.
		IDSymmetric: false,
		Rewindable:  true,
		New:         oneShotFactory(false),
	})
	locks.Register(locks.Info{
		Name:      "paper-longlived",
		Summary:   "the §6 long-lived transformation, unbounded allocation (fresh instances per switch)",
		Abortable: true,
		CCOnly:    true,
		Labels:    []string{"oneshot/", "tree/", "longlived/"},
		// Wraps the one-shot tree (id-determined leaves) and adds per-id
		// announce/retire slots in the long-lived frame. Its Go-side
		// instance and spin-node lists grow during a run, so it is not
		// Rewindable.
		IDSymmetric: false,
		New:         longLivedFactory(false),
	})
	locks.Register(locks.Info{
		Name:      "paper-longlived-bounded",
		Summary:   "the long-lived transformation with the §6.2 bounded memory management (recycled instances)",
		Abortable: true,
		CCOnly:    true,
		Labels:    []string{"oneshot/", "tree/", "longlived/"},
		// Same layout as paper-longlived, plus §6.2's per-id recycling
		// pools — more id-indexed state, not less. Its free and retired
		// lists change during a run, so it is not Rewindable.
		IDSymmetric: false,
		New:         longLivedFactory(true),
	})
}

func oneShotFactory(adaptive bool) locks.Factory {
	return func(m *rmr.Memory, w, capacity int) (locks.HandleFunc, error) {
		l, err := oneshot.New(m, oneshot.Config{W: w, N: capacity, Adaptive: adaptive})
		if err != nil {
			return nil, err
		}
		return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
	}
}

func longLivedFactory(bounded bool) locks.Factory {
	return func(m *rmr.Memory, w, capacity int) (locks.HandleFunc, error) {
		l, err := longlived.New(m, longlived.Config{
			W: w, N: capacity, Adaptive: true, Bounded: bounded,
		})
		if err != nil {
			return nil, err
		}
		return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
	}
}
