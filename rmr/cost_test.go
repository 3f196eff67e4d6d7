package rmr

import (
	"strings"
	"testing"
)

// costWorkload drives a small gated two-process contention pattern and
// returns the memory, for tests that need a deterministic charged-op
// sequence under an arbitrary cost model.
func costWorkload(t *testing.T, model Model, cm CostModel, seed int64) *Memory {
	t.Helper()
	const nprocs = 2
	s := NewScheduler(nprocs, RandomPick(seed))
	m := NewMemory(model, nprocs, nil)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	locals := [nprocs]Addr{}
	for i := range locals {
		locals[i] = m.AllocLocal(i, 0)
	}
	if cm != nil {
		m.SetCostModel(cm)
	}
	m.SetGate(s)
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		local := locals[i]
		s.GoProc(i, func() {
			for k := 0; k < 3; k++ {
				for !p.CAS(lock, 0, 1) {
					p.Read(lock)
				}
				p.FAA(count, 1)
				p.Write(local, uint64(k))
				p.Swap(lock, 0)
			}
		})
	}
	if err := s.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestUnitCostMatchesRMRs: under the default model SimTime is the RMR
// count — installing Unit explicitly must behave exactly like installing
// nothing.
func TestUnitCostMatchesRMRs(t *testing.T) {
	for _, model := range []Model{CC, DSM} {
		for _, cm := range []CostModel{nil, Unit} {
			m := costWorkload(t, model, cm, 1)
			for i := 0; i < m.NumProcs(); i++ {
				p := m.Proc(i)
				if p.SimTime() != p.RMRs() {
					t.Errorf("%v cm=%v proc %d: SimTime=%d, RMRs=%d",
						model, cm, i, p.SimTime(), p.RMRs())
				}
			}
		}
	}
}

// TestCostDeterminism: the built-in sampling models are pure functions of
// (seed, proc, attempt, class), so two identical gated runs accrue
// bit-identical simulated time, and a different cost seed prices the same
// run differently.
func TestCostDeterminism(t *testing.T) {
	for _, model := range []Model{CC, DSM} {
		for _, name := range []string{"ccnuma", "dsmremote"} {
			mk := func(costSeed int64) []int64 {
				cm, err := NewCostModel(name, costSeed)
				if err != nil {
					t.Fatal(err)
				}
				m := costWorkload(t, model, cm, 1)
				out := make([]int64, m.NumProcs())
				for i := range out {
					out[i] = m.Proc(i).SimTime()
				}
				return out
			}
			a, b, c := mk(7), mk(7), mk(8)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%v %s proc %d: same seed gave %d then %d", model, name, i, a[i], b[i])
				}
				if a[i] == 0 {
					t.Errorf("%v %s proc %d: accrued no simulated time", model, name, i)
				}
			}
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
				}
			}
			if same {
				t.Errorf("%v %s: seeds 7 and 8 priced the run identically", model, name)
			}
		}
	}
}

// TestCostObserveOnly: a cost model never changes what is counted — RMRs,
// steps, and final memory contents are identical with and without one
// (the registry-wide version of this check is the conformance
// cost-transparency subtest).
func TestCostObserveOnly(t *testing.T) {
	for _, model := range []Model{CC, DSM} {
		base := costWorkload(t, model, nil, 3)
		priced := costWorkload(t, model, NewCCNuma(11), 3)
		for i := 0; i < base.NumProcs(); i++ {
			if base.Proc(i).RMRs() != priced.Proc(i).RMRs() {
				t.Errorf("%v proc %d: RMRs %d with cost model, %d without",
					model, i, priced.Proc(i).RMRs(), base.Proc(i).RMRs())
			}
			if base.Proc(i).Steps() != priced.Proc(i).Steps() {
				t.Errorf("%v proc %d: Steps %d with cost model, %d without",
					model, i, priced.Proc(i).Steps(), base.Proc(i).Steps())
			}
		}
		for a := Addr(0); int(a) < base.Size(); a++ {
			if base.Peek(a) != priced.Peek(a) {
				t.Errorf("%v word %d: value %d with cost model, %d without",
					model, a, priced.Peek(a), base.Peek(a))
			}
		}
	}
}

// TestCostModelLookup exercises the name registry.
func TestCostModelLookup(t *testing.T) {
	for _, name := range CostModelNames() {
		cm, err := NewCostModel(name, 1)
		if err != nil {
			t.Fatalf("NewCostModel(%q): %v", name, err)
		}
		if cm.Name() != name {
			t.Errorf("NewCostModel(%q).Name() = %q", name, cm.Name())
		}
	}
	if cm, err := NewCostModel("", 1); err != nil || cm != Unit {
		t.Errorf("NewCostModel(\"\") = %v, %v; want Unit", cm, err)
	}
	if _, err := NewCostModel("bogus", 1); err == nil {
		t.Error("NewCostModel(\"bogus\") did not fail")
	} else if !strings.Contains(err.Error(), "ccnuma") {
		t.Errorf("error %q does not list the known models", err)
	}
}

// TestCostClassesPriced: every non-hit class of the built-in models has a
// positive price, local hits are free, and costs are never negative.
func TestCostClassesPriced(t *testing.T) {
	for _, cm := range []CostModel{Unit, NewCCNuma(1), NewDsmRemote(1)} {
		for class := OpClass(0); class < NumOpClasses; class++ {
			for attempt := int64(1); attempt <= 64; attempt++ {
				c := cm.Cost(0, attempt, class)
				if c < 0 {
					t.Fatalf("%s: Cost(0,%d,%v) = %d < 0", cm.Name(), attempt, class, c)
				}
				if class == ClassLocalHit && c != 0 {
					t.Fatalf("%s: local hit priced at %d", cm.Name(), c)
				}
				if class != ClassLocalHit && c == 0 {
					t.Fatalf("%s: Cost(0,%d,%v) = 0", cm.Name(), attempt, class)
				}
			}
		}
	}
}

// TestStatsSimAttribution: with a cost model and Stats installed, the
// per-cell simulated-time matrix sums to each process's SimTime, exactly
// like the RMR attribution invariant.
func TestStatsSimAttribution(t *testing.T) {
	const nprocs = 2
	m := NewMemory(CC, nprocs, nil)
	lock := m.Alloc(0)
	m.SetCostModel(NewCCNuma(5))
	st := NewStats(m)
	m.SetStats(st)
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		p.EnterPhase(PhaseDoorway)
		p.FAA(lock, 1)
		p.EnterPhase(PhaseCS)
		p.Write(lock, uint64(i))
		p.Read(lock)
		p.EnterPhase(PhaseIdle)
	}
	snap := st.Snapshot()
	if snap.Cost != "ccnuma" {
		t.Errorf("snapshot cost = %q, want ccnuma", snap.Cost)
	}
	var total int64
	for i := 0; i < nprocs; i++ {
		var procSum int64
		for ph := Phase(0); ph < NumPhases; ph++ {
			procSum += snap.ProcPhaseSimNS(i, ph)
		}
		if got := m.Proc(i).SimTime(); procSum != got {
			t.Errorf("proc %d: cells sum to %d sim ns, SimTime is %d", i, procSum, got)
		}
		total += procSum
	}
	if snap.TotalSimNS() != total {
		t.Errorf("TotalSimNS = %d, want %d", snap.TotalSimNS(), total)
	}
	if snap.PassageSim.Sum != total {
		t.Errorf("PassageSim.Sum = %d, want %d (every op happened inside a passage)", snap.PassageSim.Sum, total)
	}
	if q := snap.PassageSim.Quantile(1.0); q == 0 {
		t.Error("PassageSim.Quantile(1.0) = 0 for priced passages")
	}
}
