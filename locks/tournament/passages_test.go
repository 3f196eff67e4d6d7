package tournament_test

import (
	"testing"

	"sublock/locks/conformance"
)

// Seeded passage checks on the conformance battery's driver, at a larger N
// and more seeds than the registry-wide battery.

func TestMutualExclusion(t *testing.T) { conformance.Seeded{N: 11, Seeds: 25}.Run(t, "tournament") }

// An aborter that wins every CAS without waiting never observes its signal
// and legitimately enters, so only liveness of the non-aborters (plus
// mutual exclusion) is asserted.
func TestAborts(t *testing.T) { conformance.Seeded{N: 9, Aborters: 3, Seeds: 25}.Run(t, "tournament") }
