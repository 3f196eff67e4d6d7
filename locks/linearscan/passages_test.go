package linearscan_test

import (
	"testing"

	"sublock/locks/conformance"
)

// Seeded passage checks on the conformance battery's driver, at a larger N
// and more seeds than the registry-wide battery.

func TestMutualExclusion(t *testing.T) { conformance.Seeded{N: 12, Seeds: 25}.Run(t, "linearscan") }

func TestAborts(t *testing.T) { conformance.Seeded{N: 12, Aborters: 4, Seeds: 25}.Run(t, "linearscan") }

// Termination is the property; the slot-0 process enters regardless since
// its slot is pre-granted.
func TestAllAbort(t *testing.T) {
	conformance.Seeded{N: 10, Aborters: 10, Seeds: 25}.Run(t, "linearscan")
}

func TestNoAbortPassageO1(t *testing.T) {
	conformance.Seeded{N: 24, Seeds: 5, MaxRMRs: 6}.Run(t, "linearscan")
}
