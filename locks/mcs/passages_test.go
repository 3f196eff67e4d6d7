package mcs_test

import (
	"testing"

	"sublock/locks"
	"sublock/locks/conformance"
	"sublock/rmr"
)

// The seeded passage tests run on the conformance battery's driver, which
// checks mutual exclusion (the rmr Scheduler's check), termination, and
// that every non-aborter enters, at a larger N and more seeds than the
// registry-wide battery.

var info, _ = locks.Lookup("mcs")

// passages runs one seeded passage per process, processes [0, aborters)
// signalled to abort, and returns the memory holding each one's costs.
func passages(t *testing.T, nprocs, aborters int, seed int64) *rmr.Memory {
	t.Helper()
	m, err := conformance.Passages(info, rmr.CC, nprocs, aborters, seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m
}

func TestMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		passages(t, 12, 0, seed)
	}
}

// Under a full queue with no aborts, each passage costs O(1) RMRs.
func TestQueueHandoffRMRsConstant(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 5; seed++ {
		m := passages(t, n, 0, seed)
		for i := 0; i < n; i++ {
			if cost := m.Proc(i).RMRs(); cost > 8 {
				t.Errorf("seed %d: process %d passage RMRs = %d, want ≤ 8", seed, i, cost)
			}
		}
	}
}
