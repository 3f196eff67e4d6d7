package rmr

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// independentBody returns a body of procs processes that each write once to
// their own word: every pair of steps commutes, so the full tree has procs!
// schedules but only one equivalence class.
func independentBody(procs int) Body {
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, procs, s)
		base := m.AllocN(procs, 0)
		for i := 0; i < procs; i++ {
			i := i
			p := m.Proc(i)
			s.GoProc(i, func() { p.Write(base+Addr(i), uint64(i)+1) })
		}
		if err := s.Run(maxSteps); err != nil {
			s.Drain()
			return err
		}
		for i := 0; i < procs; i++ {
			if got := m.Peek(base + Addr(i)); got != uint64(i)+1 {
				return fmt.Errorf("word %d = %d, want %d", i, got, i+1)
			}
		}
		return nil
	}
}

// dependentBody returns a body of procs processes that each F&A the same
// word twice: every pair of steps conflicts, so sleep sets can prune
// nothing and the reduced search must walk the exact full tree.
func dependentBody(procs int) Body {
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, procs, s)
		shared := m.Alloc(0)
		for i := 0; i < procs; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				p.FAA(shared, 1)
				p.FAA(shared, 1)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			s.Drain()
			return err
		}
		if got := m.Peek(shared); got != uint64(2*procs) {
			return fmt.Errorf("shared = %d, want %d", got, 2*procs)
		}
		return nil
	}
}

// TestPORIndependentExactCounts pins the reduction on fully independent
// bodies to its hand-computed tree: one explored representative per class,
// the rest of the tree cut. (For n one-op processes the full tree has n!
// schedules, all equivalent.)
func TestPORIndependentExactCounts(t *testing.T) {
	for _, tc := range []struct {
		procs         int
		fullExplored  int
		porEquivalent int
	}{
		{2, 2, 1},
		{3, 6, 3},
	} {
		t.Run(fmt.Sprintf("procs=%d", tc.procs), func(t *testing.T) {
			body := independentBody(tc.procs)
			full := &Explorer{MaxSteps: 10}
			fres, err := full.Run(tc.procs, body)
			if err != nil {
				t.Fatal(err)
			}
			if fres.Explored != tc.fullExplored || fres.Pruned != 0 || !fres.Exhausted {
				t.Fatalf("full: %+v, want Explored=%d Pruned=0 Exhausted=true", fres, tc.fullExplored)
			}
			por := &Explorer{MaxSteps: 10, Reduction: SleepSets}
			pres, err := por.Run(tc.procs, body)
			if err != nil {
				t.Fatal(err)
			}
			if pres.Explored != 1 || pres.Pruned != 0 || pres.Equivalent != tc.porEquivalent || !pres.Exhausted {
				t.Fatalf("por: %+v, want Explored=1 Pruned=0 Equivalent=%d Exhausted=true",
					pres, tc.porEquivalent)
			}
		})
	}
}

// TestPORDependentNoReduction: on a fully conflicting body the reduced
// search must degenerate to the full one — identical counts, nothing cut.
func TestPORDependentNoReduction(t *testing.T) {
	body := dependentBody(2)
	full := &Explorer{MaxSteps: 10}
	fres, err := full.Run(2, body)
	if err != nil {
		t.Fatal(err)
	}
	por := &Explorer{MaxSteps: 10, Reduction: SleepSets}
	pres, err := por.Run(2, body)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Equivalent != 0 || !resultsEqual(pres, fres) {
		t.Fatalf("por result %+v differs from full %+v on a fully dependent body", pres, fres)
	}
	if fres.Explored != 6 || !fres.Exhausted {
		t.Fatalf("full result %+v, want 6 explored interleavings of 2×2 conflicting ops", fres)
	}
}

// TestPORSpinlockAgreement: on the real explorer workload the reduced
// search must reach the same verdict as the full one — exhausted, no
// violation — with strictly fewer replays.
func TestPORSpinlockAgreement(t *testing.T) {
	const maxSteps = 11
	full := &Explorer{MaxSteps: maxSteps}
	fres, err := full.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	por := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets}
	pres, err := por.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Exhausted != fres.Exhausted {
		t.Errorf("Exhausted: por %v, full %v", pres.Exhausted, fres.Exhausted)
	}
	if pres.Replays() >= fres.Replays() {
		t.Errorf("por replays %d, full %d: no reduction on the spinlock tree",
			pres.Replays(), fres.Replays())
	}
	t.Logf("full: %d replays (%d explored); por: %d replays (%d explored, %d pruned, %d equivalent)",
		fres.Replays(), fres.Explored, pres.Replays(), pres.Explored, pres.Pruned, pres.Equivalent)
}

// TestPORParallelEquivalence: with reduction on, an uncapped parallel
// exploration must still produce exactly the sequential Result at every
// worker count — the deterministic-count guarantee, now over classes.
func TestPORParallelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		body     Body
		maxSteps int
	}{
		{"spinlock-goproc", spinLockBody, 11},
		{"spinlock-go", spinLockBodyGo, 11},
		{"independent", independentBody(3), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := &Explorer{MaxSteps: tc.maxSteps, Reduction: SleepSets}
			want, err := seq.Run(3, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if want.Explored == 0 {
				t.Fatal("sequential run explored nothing")
			}
			for _, workers := range []int{2, 4, 8} {
				par := &Explorer{MaxSteps: tc.maxSteps, Workers: workers, Reduction: SleepSets}
				got, err := par.Run(3, tc.body)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !resultsEqual(got, want) {
					t.Errorf("workers=%d: Result = %+v, want %+v", workers, got, want)
				}
			}
		})
	}
}

// buggyLockBodyTraced is buggyLockBody with an event tracer installed, for
// replaying a reported schedule under the flight recorder.
func buggyLockBodyTraced(events *[]Event) Body {
	return func(s *Scheduler, maxSteps int) error {
		const procs = 2
		m := NewMemory(CC, procs, nil)
		lock := m.Alloc(0)
		inCS := m.Alloc(0)
		bad := m.Alloc(0)
		m.SetTracer(func(ev Event) { *events = append(*events, ev) })
		m.SetGate(s)
		for i := 0; i < procs; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				for p.Read(lock) != 0 {
					if p.AbortSignal() {
						return
					}
				}
				p.Write(lock, 1)
				if p.FAA(inCS, 1) > 0 {
					p.Write(bad, 1)
				}
				p.FAA(inCS, ^uint64(0))
				p.Write(lock, 0)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			for i := 0; i < procs; i++ {
				m.Proc(i).SignalAbort()
			}
			s.Drain()
			return err
		}
		if m.Peek(bad) != 0 {
			return errors.New("mutual exclusion violated")
		}
		return nil
	}
}

// TestPORViolationLexminAndReplay: on a buggy body the reduced search —
// sequential and parallel — must report exactly the schedule the full
// sequential DFS finds first (the lexicographically smallest violation),
// and that schedule must replay through ReplayPick to the same property
// failure with a tracer installed, producing an internally consistent
// trace.
func TestPORViolationLexminAndReplay(t *testing.T) {
	const maxSteps = 12
	full := &Explorer{MaxSteps: maxSteps}
	_, err := full.Run(2, buggyLockBody)
	var want *ErrExplore
	if !errors.As(err, &want) {
		t.Fatalf("full search found no violation: %v", err)
	}
	por := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets}
	_, err = por.Run(2, buggyLockBody)
	var got *ErrExplore
	if !errors.As(err, &got) {
		t.Fatalf("reduced search found no violation: %v", err)
	}
	if !slices.Equal(got.Schedule, want.Schedule) {
		t.Fatalf("por schedule %v, full lexmin schedule %v", got.Schedule, want.Schedule)
	}
	for _, workers := range []int{2, 4} {
		par := &Explorer{MaxSteps: maxSteps, Workers: workers, Reduction: SleepSets}
		_, err := par.Run(2, buggyLockBody)
		var pe *ErrExplore
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: no violation: %v", workers, err)
		}
		if !slices.Equal(pe.Schedule, want.Schedule) {
			t.Errorf("workers=%d: schedule %v, want %v", workers, pe.Schedule, want.Schedule)
		}
	}

	// Round-trip: replay the POR-reported schedule with the tracer on.
	var events []Event
	s := NewScheduler(2, ReplayPick(got.Schedule))
	rerr := buggyLockBodyTraced(&events)(s, maxSteps)
	if rerr == nil || errors.Is(rerr, ErrStepLimit) {
		t.Fatalf("replay did not reproduce the violation: %v", rerr)
	}
	if rerr.Error() != got.Err.Error() {
		t.Errorf("replayed failure %q, explored failure %q", rerr, got.Err)
	}
	if len(events) == 0 {
		t.Fatal("tracer recorded no events")
	}
	if cerr := CheckTrace(events, nil); cerr != nil {
		t.Errorf("replayed trace inconsistent: %v", cerr)
	}
}

// fuzzOp is one straight-line operation of a randomized body.
type fuzzOp struct {
	kind byte // 0 read, 1 write, 2 CAS, 3 F&A
	word int
	arg  uint64
	arg2 uint64
}

// fuzzBody runs one random straight-line program per process over nwords
// shared words and fails iff a hash of all per-process operation results
// and the final memory contents lands in a fixed residue class. Per-process
// results and final contents are invariant under reordering commuting
// steps, so the verdict is a function of the schedule's equivalence class —
// the contract the reduction requires — while still depending on the
// interleaving of conflicting steps, so some classes violate and others
// don't.
func fuzzBody(progs [][]fuzzOp, nwords int, hmod uint64) Body {
	nprocs := len(progs)
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, nprocs, s)
		base := m.AllocN(nwords, 0)
		results := make([][]uint64, nprocs)
		for i := 0; i < nprocs; i++ {
			i := i
			p := m.Proc(i)
			prog := progs[i]
			results[i] = make([]uint64, len(prog))
			s.GoProc(i, func() {
				for j, op := range prog {
					a := base + Addr(op.word)
					switch op.kind {
					case 0:
						results[i][j] = p.Read(a)
					case 1:
						p.Write(a, op.arg)
						results[i][j] = op.arg
					case 2:
						if p.CAS(a, op.arg, op.arg2) {
							results[i][j] = 1
						}
					case 3:
						results[i][j] = p.FAA(a, op.arg)
					}
				}
			})
		}
		if err := s.Run(maxSteps); err != nil {
			s.Drain()
			return err
		}
		h := uint64(14695981039346656037)
		fold := func(v uint64) { h = (h ^ (v + 1)) * 1099511628211 }
		for i := range results {
			for _, v := range results[i] {
				fold(v)
			}
		}
		for w := 0; w < nwords; w++ {
			fold(m.Peek(base + Addr(w)))
		}
		if h%hmod == 0 {
			return fmt.Errorf("hash residue violation (h=%d)", h)
		}
		return nil
	}
}

// TestPORFuzzAgreesWithFull is the cross-check property test: on random
// small bodies the reduced and the full search must agree on whether a
// violation exists and, when one does, on the reported lexmin violating
// schedule; violation-free runs must agree on Exhausted.
func TestPORFuzzAgreesWithFull(t *testing.T) {
	const seeds = 60
	violations := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(2)
		const nwords = 2
		progs := make([][]fuzzOp, nprocs)
		steps := 0
		for i := range progs {
			ops := make([]fuzzOp, 3+rng.Intn(2))
			for j := range ops {
				ops[j] = fuzzOp{
					kind: byte(rng.Intn(4)),
					word: rng.Intn(nwords),
					arg:  uint64(rng.Intn(3)),
					arg2: uint64(1 + rng.Intn(3)),
				}
			}
			progs[i] = ops
			steps += len(ops)
		}
		body := fuzzBody(progs, nwords, 5)

		full := &Explorer{MaxSteps: steps + 2}
		fres, ferr := full.Run(nprocs, body)
		por := &Explorer{MaxSteps: steps + 2, Reduction: SleepSets}
		pres, perr := por.Run(nprocs, body)

		var fe, pe *ErrExplore
		fviol := errors.As(ferr, &fe)
		pviol := errors.As(perr, &pe)
		if fviol != pviol {
			t.Fatalf("seed %d: full violation=%v, por violation=%v (full err %v, por err %v)",
				seed, fviol, pviol, ferr, perr)
		}
		if fviol {
			violations++
			if !slices.Equal(fe.Schedule, pe.Schedule) {
				t.Fatalf("seed %d: por schedule %v, full lexmin %v", seed, pe.Schedule, fe.Schedule)
			}
			continue
		}
		if ferr != nil || perr != nil {
			t.Fatalf("seed %d: unexpected errors full=%v por=%v", seed, ferr, perr)
		}
		if fres.Pruned != 0 {
			t.Fatalf("seed %d: straight-line body pruned %d schedules", seed, fres.Pruned)
		}
		if !fres.Exhausted || !pres.Exhausted {
			t.Fatalf("seed %d: Exhausted full=%v por=%v", seed, fres.Exhausted, pres.Exhausted)
		}
		if pres.Replays() > fres.Replays() {
			t.Fatalf("seed %d: por replayed more (%d) than full (%d)",
				seed, pres.Replays(), fres.Replays())
		}
	}
	if violations == 0 {
		t.Error("fuzz corpus produced no violating bodies; weaken the residue class")
	}
	t.Logf("%d/%d seeds violated; por agreed on all", violations, seeds)
}

// TestPORReplayDoesNotAllocate is the steady-state allocation guard for the
// replay loop with reduction enabled: with a body that reuses its memory
// (reset via Poke) and prebuilt process closures, a full replay — run,
// reduction bookkeeping, backfill, drain on cut schedules, process
// coroutines reused from the replayer's scheduler — allocates nothing.
func TestPORReplayDoesNotAllocate(t *testing.T) {
	const procs, maxSteps = 3, 14
	rp := newReplayer(procs, exploreConfig{maxSteps: maxSteps, red: SleepSets})
	defer rp.close()
	m := NewMemory(CC, procs, rp.s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	var fns [procs]func()
	for i := 0; i < procs; i++ {
		p := m.Proc(i)
		fns[i] = func() {
			for !p.CAS(lock, 0, 1) {
				if p.AbortSignal() {
					return
				}
			}
			p.FAA(count, 1)
			p.Write(lock, 0)
		}
	}
	errStalled := fmt.Errorf("stalled: %w", ErrStepLimit)
	body := func(s *Scheduler, budget int) error {
		m.Poke(lock, 0)
		m.Poke(count, 0)
		for i := 0; i < procs; i++ {
			m.Proc(i).ClearAbort()
		}
		for i := 0; i < procs; i++ {
			s.GoProc(i, fns[i])
		}
		if err := s.Run(budget); err != nil {
			for i := 0; i < procs; i++ {
				m.Proc(i).SignalAbort()
			}
			s.Drain()
			return errStalled
		}
		return nil
	}
	rec := &rp.rec
	// Warm up: replay the leftmost schedule so the snapshot rows cover the
	// root and the scheduler holds its process coroutines.
	if err := rp.run(nil, body, maxSteps); err != nil {
		t.Fatal(err)
	}
	rec.backfill()
	if len(rec.taken) == 0 || rec.width[0] < 2 {
		t.Fatalf("warmup tree too narrow: taken=%v width=%v", rec.taken, rec.width)
	}
	seedOp := make([]stepAccess, procs)
	seedMask := rec.childSleep(0, 1, seedOp)
	prefix := []int{1}
	got := testing.AllocsPerRun(100, func() {
		rec.por.seedMask = seedMask
		copy(rec.por.seedOp, seedOp)
		if err := rp.run(prefix, body, maxSteps); err != nil && !errors.Is(err, ErrStepLimit) {
			t.Error(err)
		}
		rec.backfill()
	})
	if got != 0 {
		t.Errorf("steady-state replay allocates %v objects per run, want 0", got)
	}
}
