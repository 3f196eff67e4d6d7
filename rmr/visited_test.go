package rmr

import (
	"bytes"
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

// TestCheckpointResumeDeterministic: chaining capped checkpointed runs to
// completion must cover the tree exactly. At Workers=1 the resumed runs
// replay the exact continuation of the interrupted DFS, so the final
// totals — and the final serialized artifact — must be byte-identical to
// an uninterrupted run's. At higher worker counts the invariant subset is
// asserted (see TestVisitedParallelDeterminism for why the cut split is
// order-dependent under racing workers).
func TestCheckpointResumeDeterministic(t *testing.T) {
	const maxSteps, config = 14, "spinlock/cc/n=3"
	for _, workers := range []int{1, 2, 4} {
		e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Workers: workers}
		want, wantCk, err := e.RunCheckpoint(3, spinLockBody, config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !wantCk.Complete || !want.Exhausted {
			t.Fatalf("workers=%d: uninterrupted run did not complete: %+v", workers, want)
		}

		var resume *Checkpoint
		var got Result
		for hops := 0; ; hops++ {
			if hops > 10000 {
				t.Fatal("resume chain does not terminate")
			}
			step := *e
			step.MaxSchedules = got.Replays() + 50
			res, ck, err := step.RunCheckpoint(3, spinLockBody, config, resume)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through the serialized form, as the CLI does.
			data, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if resume, err = DecodeCheckpoint(data); err != nil {
				t.Fatal(err)
			}
			got = res
			if ck.Complete {
				if hops == 0 {
					t.Fatalf("workers=%d: cap did not interrupt the run", workers)
				}
				break
			}
		}
		if workers == 1 {
			if !resultsEqual(want, got) {
				t.Errorf("workers=1: resumed totals %+v, want %+v", got, want)
			}
			wantData, _ := wantCk.Encode()
			gotData, _ := resume.Encode()
			if !bytes.Equal(wantData, gotData) {
				t.Errorf("workers=1: final checkpoint differs from uninterrupted run's:\n%s\nvs\n%s",
					gotData, wantData)
			}
		} else {
			if got.Explored != want.Explored || !got.Exhausted {
				t.Errorf("workers=%d: resumed explored=%d exhausted=%v, want %d, true",
					workers, got.Explored, got.Exhausted, want.Explored)
			}
			if !resume.Complete {
				t.Errorf("workers=%d: final checkpoint not marked complete", workers)
			}
		}
	}
}

// TestCheckpointValidation: version and configuration mismatches must be
// rejected with the sentinel errors, not silently resumed.
func TestCheckpointValidation(t *testing.T) {
	const maxSteps, config = 14, "spinlock/cc/n=3"
	e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, MaxSchedules: 20}
	_, ck, err := e.RunCheckpoint(3, spinLockBody, config, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Complete {
		t.Fatal("cap did not interrupt the run")
	}

	bad := *ck
	bad.Version = CheckpointVersion + 1
	if _, _, err := e.RunCheckpoint(3, spinLockBody, config, &bad); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version mismatch: err = %v, want ErrCheckpointVersion", err)
	}
	data, _ := bad.Encode()
	if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("decode of v%d: err = %v, want ErrCheckpointVersion", bad.Version, err)
	}
	if _, _, err := e.RunCheckpoint(3, spinLockBody, "other/config", ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("config mismatch: err = %v, want ErrCheckpointConfig", err)
	}
	e2 := *e
	e2.MaxSteps = maxSteps + 2
	if _, _, err := e2.RunCheckpoint(3, spinLockBody, config, ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("max-steps mismatch: err = %v, want ErrCheckpointConfig", err)
	}
	e3 := *e
	e3.Visited = true
	if _, _, err := e3.RunCheckpoint(3, spinLockBody, config, ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("reduction mismatch: err = %v, want ErrCheckpointConfig", err)
	}
}

// TestSplitMerge: a one-replay root checkpoint split into more parts than
// the root has branches must resume part by part to exactly the unsplit
// Result, under sleep sets too (each frontier subtree carries its own
// sleep seed); under visited caching some part must still find the
// buggy-lock violation.
func TestSplitMerge(t *testing.T) {
	const maxSteps, parts, config = 12, 5, "spinlock/cc/n=3"
	for _, red := range []Reduction{NoReduction, SleepSets} {
		want, err := (&Explorer{MaxSteps: maxSteps, Reduction: red}).Run(3, spinLockBody)
		if err != nil {
			t.Fatal(err)
		}
		seed := &Explorer{MaxSteps: maxSteps, Reduction: red, MaxSchedules: 1}
		_, root, err := seed.RunCheckpoint(3, spinLockBody, config, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []Result
		for i, part := range root.Split(parts) {
			e := &Explorer{MaxSteps: maxSteps, Reduction: red, Workers: 2}
			res, ck, err := e.RunCheckpoint(3, spinLockBody, config, part)
			if err != nil {
				t.Fatalf("red=%v part %d: %v", red, i, err)
			}
			if !ck.Complete {
				t.Fatalf("red=%v part %d: subtrees not exhausted", red, i)
			}
			got = append(got, res)
		}
		if merged := Merge(got...); !resultsEqual(want, merged) {
			t.Errorf("red=%v: merged parts %+v, want unsplit %+v", red, merged, want)
		}
	}

	const buggySteps, buggyConfig = 12, "buggy/cc/n=2"
	seed := &Explorer{MaxSteps: buggySteps, Reduction: SleepSets, Visited: true, MaxSchedules: 1}
	_, root, err := seed.RunCheckpoint(2, buggyLockBody, buggyConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, part := range root.Split(parts) {
		e := &Explorer{MaxSteps: buggySteps, Reduction: SleepSets, Visited: true, Workers: 2}
		_, _, err := e.RunCheckpoint(2, buggyLockBody, buggyConfig, part)
		var ee *ErrExplore
		if errors.As(err, &ee) {
			found++
		} else if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	if found == 0 {
		t.Error("no part found the buggy-lock violation")
	}
}

// TestCheckpointRejectsNegativeChoice: a frontier prefix with a negative
// choice index would reach the scheduler as a reduction cut and drop the
// subtree's coverage; resume must refuse it as a configuration error.
func TestCheckpointRejectsNegativeChoice(t *testing.T) {
	const maxSteps, config = 14, "spinlock/cc/n=3"
	e := &Explorer{MaxSteps: maxSteps, MaxSchedules: 1}
	_, ck, err := e.RunCheckpoint(3, spinLockBody, config, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck.Frontier = []CheckpointTask{{Prefix: []int{-1}}}
	resume := &Explorer{MaxSteps: maxSteps}
	if res, _, err := resume.RunCheckpoint(3, spinLockBody, config, ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("negative prefix: err = %v (result %+v), want ErrCheckpointConfig", err, res)
	}
}

// TestVisitedSetSaturation: the set must keep answering correctly after the
// insertion limit, only losing the recording of new states.
func TestVisitedSetSaturation(t *testing.T) {
	vs := newVisitedSet(8) // limit 7 of 8 slots
	for i := uint64(1); i <= 7; i++ {
		if vs.seen(i * 0x1111111111111111) {
			t.Fatalf("fresh fingerprint %d reported seen", i)
		}
	}
	if vs.sat.Load() {
		t.Fatal("saturated below the limit")
	}
	if vs.seen(0xdeadbeef) {
		t.Fatal("first over-limit insert reported seen")
	}
	if !vs.sat.Load() {
		t.Fatal("saturation not flagged")
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

// TestVisitedSetDumpLoad: dump/load must round-trip the recorded set in
// canonical (sorted) order.
func TestVisitedSetDumpLoad(t *testing.T) {
	vs := newVisitedSet(64)
	fps := []uint64{42, 7, 0x8000000000000000, 3, 99999}
	for _, fp := range fps {
		vs.seen(fp)
	}
	dump := vs.dump()
	if !sort.SliceIsSorted(dump, func(i, j int) bool { return dump[i] < dump[j] }) {
		t.Fatalf("dump not sorted: %v", dump)
	}
	if len(dump) != len(fps) {
		t.Fatalf("dump has %d entries, want %d", len(dump), len(fps))
	}
	re := newVisitedSet(64)
	re.load(dump)
	for _, fp := range fps {
		if !re.seen(fp) {
			t.Errorf("fingerprint %#x lost in round-trip", fp)
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
	n := m.size.Load()
	var a int64
	for k := 0; a < n; k++ {
		seg := *m.segs[k].Load()
		lim := int64(len(seg))
		if n-a < lim {
			lim = n - a
		}
		for i := int64(0); i < lim; i++ {
			w := &seg[i]
			h = mix(h, w.val.Load())
			h = mix(h, uint64(bits.OnesCount64(w.cached.inline.Load())))
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
