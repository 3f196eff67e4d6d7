package tas_test

import (
	"testing"

	"sublock/locks/conformance"
)

// Seeded passage checks on the conformance battery's driver, at a larger N
// and more seeds than the registry-wide battery.

func TestMutualExclusion(t *testing.T) { conformance.Seeded{N: 10, Seeds: 25}.Run(t, "tas") }

func TestAborts(t *testing.T) { conformance.Seeded{N: 8, Aborters: 3, Seeds: 25}.Run(t, "tas") }
