package mcs_test

import (
	"testing"

	"sublock/locks/conformance"
)

// Seeded passage checks on the conformance battery's driver, at a larger N
// and more seeds than the registry-wide battery.

func TestMutualExclusion(t *testing.T) { conformance.Seeded{N: 12, Seeds: 25}.Run(t, "mcs") }

// Under a full queue with no aborts, each passage costs O(1) RMRs.
func TestQueueHandoffRMRsConstant(t *testing.T) {
	conformance.Seeded{N: 24, Seeds: 5, MaxRMRs: 8}.Run(t, "mcs")
}
