//go:build !go1.24

package rmr

// Without the weak package (Go 1.24) every exploration allocates its own
// visited set; see spare.go.

func takeVisitedSet() *visitedSet { return newVisitedSet(visitedMin, visitedCap) }

func releaseVisitedSet(*visitedSet) {}
