package rmr

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"testing"
)

// TestVisitedReduction: state-hash caching must cut re-converging
// interleavings of the spin-lock tree without changing the verdict or
// exhaustiveness, both with and without sleep sets underneath.
func TestVisitedReduction(t *testing.T) {
	const maxSteps = 14
	full, err := (&Explorer{MaxSteps: maxSteps}).Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	for _, red := range []Reduction{NoReduction, SleepSets} {
		base, err := (&Explorer{MaxSteps: maxSteps, Reduction: red}).Run(3, spinLockBody)
		if err != nil {
			t.Fatal(err)
		}
		vis, err := (&Explorer{MaxSteps: maxSteps, Reduction: red, Visited: true}).Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("red=%v visited: %v", red, err)
		}
		if !vis.Exhausted {
			t.Fatalf("red=%v visited: tree not exhausted", red)
		}
		if vis.VisitedSaturated {
			t.Fatalf("red=%v visited: set saturated on a toy tree", red)
		}
		if vis.VisitedHits == 0 {
			t.Errorf("red=%v visited: no visited hits on a re-converging tree", red)
		}
		if vis.Replays() >= base.Replays() {
			t.Errorf("red=%v visited: replays %d, want < %d", red, vis.Replays(), base.Replays())
		}
		if vis.Explored >= full.Explored {
			t.Errorf("red=%v visited: explored %d, want < full %d", red, vis.Explored, full.Explored)
		}
	}
}

// TestSymmetryReduction: the three spin-lock processes are interchangeable,
// so restricting fresh grants to the smallest fresh id must cut the
// explored schedules roughly by the 3! id permutations while staying
// exhaustive over the canonical tree.
func TestSymmetryReduction(t *testing.T) {
	const maxSteps = 14
	for _, red := range []Reduction{NoReduction, SleepSets} {
		base, err := (&Explorer{MaxSteps: maxSteps, Reduction: red}).Run(3, spinLockBody)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := (&Explorer{MaxSteps: maxSteps, Reduction: red, Symmetry: true}).Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("red=%v symmetry: %v", red, err)
		}
		if !sym.Exhausted {
			t.Fatalf("red=%v symmetry: tree not exhausted", red)
		}
		if sym.Replays()*2 >= base.Replays() {
			t.Errorf("red=%v symmetry: replays %d, want < half of %d", red, sym.Replays(), base.Replays())
		}
	}
}

// TestReductionLatticeViolation: every point of the reduction lattice must
// still find a violation in the buggy lock, and the reported schedule must
// reproduce it under a plain replay.
func TestReductionLatticeViolation(t *testing.T) {
	const maxSteps = 12
	cases := []Explorer{
		{MaxSteps: maxSteps},
		{MaxSteps: maxSteps, Reduction: SleepSets},
		{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true},
		{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Symmetry: true},
		{MaxSteps: maxSteps, Visited: true, Symmetry: true},
	}
	for i, e := range cases {
		_, err := e.Run(2, buggyLockBody)
		var ee *ErrExplore
		if !errors.As(err, &ee) {
			t.Fatalf("case %d (vis=%v sym=%v red=%v): no violation: %v",
				i, e.Visited, e.Symmetry, e.Reduction, err)
		}
		rp := newReplayer(2, exploreConfig{maxSteps: maxSteps})
		if rerr := rp.run(ee.Schedule, buggyLockBody, maxSteps); rerr == nil {
			t.Errorf("case %d: reported schedule %v does not reproduce", i, ee.Schedule)
		}
		rp.close()
	}
}

// TestVisitedParallelDeterminism: with visited caching and symmetry on,
// Workers=1 must reproduce the sequential counts exactly (the one-worker
// engine pops tasks in DFS order), and at every worker count the coverage
// guarantees must hold: same Explored representatives and an exhausted
// tree. The Pruned/VisitedHits split and the depth histogram are NOT
// asserted for racing workers — whether a replay is cut at a revisited
// state or runs on to the step limit depends on which of two equal-key
// nodes a concurrent worker keyed first, so those counts are bookkeeping
// of the particular interleaving of workers, not properties of the tree.
func TestVisitedParallelDeterminism(t *testing.T) {
	const maxSteps = 14
	e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Symmetry: true}
	want, err := e.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	one := *e
	one.Workers = 1
	got, err := one.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Errorf("workers=1: %+v, want sequential %+v", got, want)
	}
	for _, workers := range []int{2, 4, 8} {
		ep := *e
		ep.Workers = workers
		got, err := ep.Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Explored != want.Explored || got.Exhausted != want.Exhausted {
			t.Errorf("workers=%d: explored=%d exhausted=%v, want %d, %v",
				workers, got.Explored, got.Exhausted, want.Explored, want.Exhausted)
		}
		if got.VisitedHits == 0 {
			t.Errorf("workers=%d: visited caching cut nothing", workers)
		}
	}
}

// TestHistFoldHasNoFixedPoint: folding an operation into the empty
// observation history never yields the empty history, so a started process
// never fingerprints like one that has not started. mix(0, 0) is 0, so
// without histFold's constant a read of 0 at address 0 did.
func TestHistFoldHasNoFixedPoint(t *testing.T) {
	for _, aborted := range []bool{false, true} {
		if h := histFold(0, 0, 0, aborted); h == 0 {
			t.Errorf("histFold(0, 0, 0, %v) = 0, the empty history", aborted)
		}
	}
}

// TestVisitedSetSaturation: a table at its max size must keep answering
// correctly after its insertion limit, only losing the recording of new
// states.
func TestVisitedSetSaturation(t *testing.T) {
	vs := newVisitedSet(8, 8) // at its max size: limit 7 of 8 slots
	for i := uint64(1); i <= 7; i++ {
		if vs.seen(i * 0x1111111111111111) {
			t.Fatalf("fresh fingerprint %d reported seen", i)
		}
	}
	if vs.sat.Load() || vs.grow.Load() {
		t.Fatal("saturated or asked to grow below the limit")
	}
	if vs.seen(0xdeadbeef) {
		t.Fatal("first over-limit insert reported seen")
	}
	if !vs.sat.Load() || vs.grow.Load() {
		t.Fatalf("over the limit at the max size: saturated %v, growth requested %v; want true, false", vs.sat.Load(), vs.grow.Load())
	}
	for i := uint64(1); i <= 7; i++ {
		if !vs.seen(i * 0x1111111111111111) {
			t.Errorf("recorded fingerprint %d lost after saturation", i)
		}
	}
	if vs.seen(0xdeadbeef) {
		t.Error("unrecorded fingerprint reported seen after saturation")
	}
}

// growKey is the i-th key of the growth tests, never 0. Every fourth key
// shares its low bits with the one before, so that probe chains cross
// slots.
func growKey(i int) uint64 {
	if i%4 == 3 {
		return growKey(i-1) ^ 1<<40
	}
	return uint64(i+1) * 0x9e3779b97f4a7c15
}

// TestVisitedSetGrows: a table that ends a task after each insertion
// doubles each time an insertion takes it past 7/8 load, keeps every key
// across each doubling, and saturates only at its max size, after the
// keys a table of max slots from the start would record.
func TestVisitedSetGrows(t *testing.T) {
	const start, max = 16, 128
	vs := newVisitedSet(start, max)
	vs.acquire()
	defer vs.release()
	size := start
	for i := 0; i < max; i++ {
		recorded := i < max-max/8
		if vs.seen(growKey(i)) {
			t.Fatalf("fresh key %d reported seen", i)
		}
		if vs.sat.Load() != !recorded {
			t.Fatalf("after key %d in %d slots: saturated %v", i, size, vs.sat.Load())
		}
		grow := i+1 > size-size/8 && size < max
		if vs.grow.Load() != grow {
			t.Fatalf("after key %d in %d slots: growth requested %v", i, size, vs.grow.Load())
		}
		vs.boundary()
		if grow {
			size *= 2
		}
		if len(vs.slots) != size {
			t.Fatalf("after key %d: %d slots, want %d", i, len(vs.slots), size)
		}
		for j := 0; j <= i; j++ {
			if vs.has(growKey(j)) != (j < max-max/8) {
				t.Fatalf("after key %d in %d slots: key %d recorded %v", i, size, j, j >= max-max/8)
			}
		}
	}
	if vs.has(growKey(max)) {
		t.Error("a key never inserted is reported recorded")
	}
}

// TestVisitedSetAnswersAcrossResize: between the insertion that requests
// growth and the boundary that grows the table, has and seen answer from
// the held-back slots, and after it from the doubled table; a table whose
// held-back slots fill before a boundary saturates below its max size.
func TestVisitedSetAnswersAcrossResize(t *testing.T) {
	vs := newVisitedSet(16, 64)
	vs.acquire()
	defer vs.release()
	check := func(when string, inserted int) {
		t.Helper()
		for i := 0; i < inserted+2; i++ {
			if vs.has(growKey(i)) != (i < inserted) {
				t.Fatalf("%s: has(key %d) = %v", when, i, i >= inserted)
			}
		}
		for i := 0; i < inserted; i++ {
			if !vs.seen(growKey(i)) {
				t.Fatalf("%s: seen(key %d) = false", when, i)
			}
		}
	}
	for i := 0; i < 15; i++ { // the 15th key goes past 14, 7/8 of 16
		vs.seen(growKey(i))
	}
	if !vs.grow.Load() || len(vs.slots) != 16 {
		t.Fatalf("15 keys in 16 slots: growth requested %v, %d slots", vs.grow.Load(), len(vs.slots))
	}
	check("before the boundary", 15)
	vs.boundary()
	if vs.grow.Load() || len(vs.slots) != 32 || vs.used.Load() != 15 {
		t.Fatalf("after the boundary: growth requested %v, %d slots, %d used; want false, 32, 15", vs.grow.Load(), len(vs.slots), vs.used.Load())
	}
	check("after the boundary", 15)

	// No boundary from here on: past 28 keys the table asks to grow, and
	// at 31, all of its slots but one, it saturates.
	for i := 15; i < 40; i++ {
		vs.seen(growKey(i))
	}
	if !vs.sat.Load() || vs.used.Load() != 31 || len(vs.slots) != 32 {
		t.Fatalf("40 keys without a boundary: saturated %v, %d used of %d slots; want true, 31 of 32", vs.sat.Load(), vs.used.Load(), len(vs.slots))
	}
	check("saturated below the max size", 31)
	vs.boundary()
	if len(vs.slots) != 64 {
		t.Fatalf("a boundary after saturation left %d slots, want 64", len(vs.slots))
	}
	check("grown after saturation", 31)
}

// TestLearnTableGrows: the learn table starts at learnMin slots, keeps
// every key it records across its doublings, and saturates at learnCap
// slots after the same number of keys a table of learnCap slots from the
// start would record.
func TestLearnTableGrows(t *testing.T) {
	lt := newLearnTable()
	if len(lt.slots) != learnMin {
		t.Fatalf("a new table has %d slots, want %d", len(lt.slots), learnMin)
	}
	limit := learnCap - learnCap/8
	for h := uint64(0); h < learnCap; h++ {
		lt.note(1, h, learnParks, pendingOp{op: OpRead, addr: Addr(h)}, h)
	}
	if len(lt.slots) != learnCap || lt.used != limit {
		t.Fatalf("after %d keys: %d slots, %d used; want %d and %d", learnCap, len(lt.slots), lt.used, learnCap, limit)
	}
	for h := uint64(0); h < learnCap; h++ {
		sl := lt.next(1, h)
		recorded := sl.class() == learnParks && sl.parked.addr == Addr(h) && sl.sig == h
		if recorded != (h < uint64(limit)) {
			t.Fatalf("key %d: slot %+v, recorded %v; the first %d keys are recorded", h, sl, recorded, limit)
		}
	}
}

// symCounterBody returns a fully id-symmetric body over nprocs processes:
// shared words only, no per-id branching, so any id permutation of a
// schedule is again a valid schedule with permuted histories.
func symCounterBody(nprocs, maxSteps int, s *Scheduler) *Memory {
	m := NewMemory(CC, nprocs, s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			for !p.CAS(lock, 0, 1) {
				if p.AbortSignal() {
					return
				}
			}
			p.FAA(count, 1)
			p.Write(lock, 0)
		})
	}
	return m
}

// canonicalFingerprint hashes the id-independent view of a finished run:
// per-word values, the *sizes* of the per-word coherence sets (the sets
// themselves are pid bitmasks, so only their cardinality is id-invariant),
// and the sorted multiset of per-process observation histories. Two runs
// that are id permutations of each other must agree on it.
func canonicalFingerprint(s *Scheduler, m *Memory) uint64 {
	h := uint64(0x8c9da6b1f8d3a7e5)
	n := m.size
	var a int64
	for k := 0; a < n; k++ {
		seg := m.segs[k]
		lim := int64(len(seg))
		if n-a < lim {
			lim = n - a
		}
		for i := int64(0); i < lim; i++ {
			w := &seg[i]
			h = mix(h, w.val)
			h = mix(h, uint64(bits.OnesCount64(w.cached.inline)))
		}
		a += lim
	}
	hists := append([]uint64(nil), s.hist...)
	sort.Slice(hists, func(i, j int) bool { return hists[i] < hists[j] })
	for _, lh := range hists {
		h = mix(h, lh)
	}
	return h
}

// FuzzSymmetryFingerprint drives a fuzz-chosen schedule over a symmetric
// body, then replays the same schedule with every process id permuted, and
// asserts both runs converge to the same canonical state fingerprint —
// the invariance the symmetry reduction's soundness rests on.
func FuzzSymmetryFingerprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{2, 2, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, choices []byte) {
		const nprocs, maxSteps = 3, 16
		perms := [][]int{{1, 2, 0}, {2, 1, 0}, {0, 2, 1}}

		// Base run: the fuzz bytes choose a pid at every quiescent point.
		var pids []int
		run := func(choose func(step int, waiting []int) int) (uint64, error) {
			var s *Scheduler
			s = NewScheduler(nprocs, func(step int, waiting []int) int {
				return choose(step, waiting)
			})
			s.hist = make([]uint64, nprocs)
			m := symCounterBody(nprocs, maxSteps, s)
			err := s.Run(maxSteps)
			// Fingerprint at the quiescent point before any drain: drained
			// steps run in fixed pid order, so they are not covariant under
			// id permutation — only the scheduled portion is.
			fp := canonicalFingerprint(s, m)
			if err != nil {
				for i := 0; i < nprocs; i++ {
					m.Proc(i).SignalAbort()
				}
				s.Drain()
			}
			return fp, err
		}

		baseFp, baseErr := run(func(step int, waiting []int) int {
			var c int
			if step < len(choices) {
				c = int(choices[step]) % len(waiting)
			}
			pids = append(pids, waiting[c])
			return c
		})

		for _, perm := range perms {
			permFp, permErr := run(func(step int, waiting []int) int {
				if step >= len(pids) {
					t.Fatalf("permuted run outlived the base schedule at step %d", step)
				}
				want := perm[pids[step]]
				for i, pid := range waiting {
					if pid == want {
						return i
					}
				}
				t.Fatalf("permuted pid %d not waiting at step %d (waiting %v): body not id-symmetric?",
					want, step, waiting)
				return 0
			})
			if (baseErr == nil) != (permErr == nil) {
				t.Fatalf("perm %v: verdict differs: base %v, permuted %v", perm, baseErr, permErr)
			}
			if permFp != baseFp {
				t.Errorf("perm %v: canonical fingerprint %#x, want %#x", perm, permFp, baseFp)
			}
		}
	})
}

// TestExploreCountsVisitedExact pins the visited-caching cut exactly on a
// two-process tree of two Writes each to distinct words: interleaving
// states form a 3x3 progress grid (word values reveal only how far each
// process got), so the 6-leaf choice tree collapses onto the grid's
// diagonal sweep. Hand-traced: the leftmost replay [0,0,1,1] is explored;
// prefix [0,1] re-converges with it at depth 3 (hit); [0,1,1,...] is
// explored as the second representative; prefixes [1] and [1,1] both hit
// states already keyed from the p0-first branches (depths 2 and 3). The
// counts below are an exact regression anchor. A second run pins the
// symmetry cut on the fully id-symmetric shared-FAA body, where the
// canonical tree grants fresh ids smallest-first: 3 replays cover the 6
// leaves.
func TestExploreCountsVisitedExact(t *testing.T) {
	grid := func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		words := []Addr{m.Alloc(0), m.Alloc(0)}
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			w := words[i]
			s.GoProc(i, func() {
				p.Write(w, 1)
				p.Write(w, 2)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		for i, w := range words {
			if got := m.Peek(w); got != 2 {
				return fmt.Errorf("word %d = %d, want 2", i, got)
			}
		}
		return nil
	}
	res, err := (&Explorer{Visited: true}).Run(2, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("grid run not exhausted: %+v", res)
	}
	if res.Explored != 2 || res.VisitedHits != 3 {
		t.Errorf("grid counts explored=%d hits=%d, want 2 and 3 (full tree has 6 leaves)",
			res.Explored, res.VisitedHits)
	}

	// Shared-word FAAs are id-symmetric: with 2 interchangeable processes
	// the canonical tree keeps only grant orders whose first grant goes to
	// the smallest fresh id — 3 replays instead of the full tree's 6.
	faa := func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		a := m.Alloc(0)
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				p.FAA(a, 1)
				p.FAA(a, 1)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		if got := m.Peek(a); got != 4 {
			return fmt.Errorf("counter = %d, want 4", got)
		}
		return nil
	}
	full, err := (&Explorer{}).Run(2, faa)
	if err != nil {
		t.Fatal(err)
	}
	if full.Explored != 6 {
		t.Fatalf("full FAA tree explored %d leaves, want 6", full.Explored)
	}
	sym, err := (&Explorer{Symmetry: true}).Run(2, faa)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.Exhausted {
		t.Fatal("symmetry run not exhausted")
	}
	if sym.Replays() != 3 {
		t.Errorf("symmetry replays %d, want 3 (canonical half of the 6-leaf tree)", sym.Replays())
	}
}
