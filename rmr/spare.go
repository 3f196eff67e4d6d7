//go:build go1.24

package rmr

import (
	"sync"
	"weak"
)

// spare is the visited set of the exploration that ended last, held
// weakly: the next exploration reuses it unless a collection freed it in
// between. Explorations run back to back then allocate the 1 MiB
// start-size set about once per collection rather than once each, and a
// program that stops exploring holds no set past its next collection. A
// set that grew is never kept: clearing it would cost its whole size.
var spare struct {
	sync.Mutex
	vs weak.Pointer[visitedSet]
}

// takeVisitedSet returns the spare set, cleared, or a new one.
func takeVisitedSet() *visitedSet {
	spare.Lock()
	vs := spare.vs.Value()
	spare.vs = weak.Pointer[visitedSet]{}
	spare.Unlock()
	if vs == nil {
		return newVisitedSet(visitedMin, visitedCap)
	}
	clear(vs.slots)
	vs.used.Store(0)
	vs.grow.Store(false)
	vs.sat.Store(false)
	return vs
}

// releaseVisitedSet makes vs, which no worker touches any more, the spare
// if it never grew; nil is ignored.
func releaseVisitedSet(vs *visitedSet) {
	if vs != nil && len(vs.slots) == visitedMin {
		spare.Lock()
		spare.vs = weak.Make(vs)
		spare.Unlock()
	}
}
