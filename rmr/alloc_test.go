package rmr

import (
	"fmt"
	"testing"
)

// TestOperationsDoNotAllocate asserts the zero-allocation guarantee of the
// operation path: Read/Write/CAS/FAA/Swap allocate nothing in steady state,
// with no tracer installed, under CC and DSM, with the inline and the
// spilled (nprocs > 64) cache set, ungated and under a scheduler gate.
func TestOperationsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  Model
		nprocs int
	}{
		{"CC", CC, 2},
		{"DSM", DSM, 2},
		{"CC-wide", CC, 65},
	} {
		t.Run("ungated/"+tc.name, func(t *testing.T) {
			m := NewMemory(tc.model, tc.nprocs, nil)
			own := m.AllocLocal(0, 0)
			shared := m.Alloc(0)
			p := m.Proc(0)
			checkOpsDoNotAllocate(t, p, own, shared)
		})
	}
	for _, model := range []Model{CC, DSM} {
		t.Run(fmt.Sprintf("gated/%v", model), func(t *testing.T) {
			s := NewScheduler(1, func(_ int, _ []int) int { return 0 })
			m := NewMemory(model, 1, s)
			own := m.AllocLocal(0, 0)
			shared := m.Alloc(0)
			p := m.Proc(0)
			s.Go(func() { checkOpsDoNotAllocate(t, p, own, shared) })
			if err := s.Run(1 << 30); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func checkOpsDoNotAllocate(t *testing.T, p *Proc, own, shared Addr) {
	got := testing.AllocsPerRun(100, func() {
		p.Read(own)
		p.Write(own, 1)
		p.CAS(own, 1, 2)
		p.FAA(shared, 1)
		p.Swap(shared, 0)
		p.Read(shared)
	})
	if got != 0 {
		t.Errorf("operations allocate %v objects per run, want 0", got)
	}
}

// TestCostModelPathDoesNotAllocate: the cost-model seam must not cost the
// zero-allocation guarantee on any data path — neither under the default
// Unit model (installed explicitly, which Memory normalizes to the nil fast
// path) nor under the built-in sampling models, whose Cost is a pure table
// lookup.
func TestCostModelPathDoesNotAllocate(t *testing.T) {
	for _, cm := range []CostModel{Unit, NewCCNuma(1), NewDsmRemote(1)} {
		for _, model := range []Model{CC, DSM} {
			t.Run(fmt.Sprintf("%s/%v", cm.Name(), model), func(t *testing.T) {
				m := NewMemory(model, 2, nil)
				own := m.AllocLocal(0, 0)
				shared := m.Alloc(0)
				m.SetCostModel(cm)
				checkOpsDoNotAllocate(t, m.Proc(0), own, shared)
			})
		}
	}
}

// TestEnterPhaseDoesNotAllocate: phase transitions are part of every lock's
// operation path, so they share the zero-allocation guarantee — with no
// observer, and with a Stats collector installed (Stats records into
// preallocated atomic cells).
func TestEnterPhaseDoesNotAllocate(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	p := m.Proc(0)
	phases := []Phase{PhaseDoorway, PhaseWaiting, PhaseCS, PhaseExit, PhaseIdle}
	check := func(name string) {
		got := testing.AllocsPerRun(100, func() {
			for _, ph := range phases {
				p.EnterPhase(ph)
			}
		})
		if got != 0 {
			t.Errorf("%s: EnterPhase allocates %v objects per run, want 0", name, got)
		}
	}
	check("no observer")
	m.SetStats(NewStats(m))
	check("stats installed")
}

// TestStatsPathDoesNotAllocate: the observed operation path with only a
// Stats collector installed (no tracer) stays allocation-free — counters
// are preallocated and recording passes no events around.
func TestStatsPathDoesNotAllocate(t *testing.T) {
	m := NewMemory(CC, 2, nil)
	own := m.AllocLocal(0, 0)
	shared := m.Alloc(0)
	m.SetStats(NewStats(m))
	checkOpsDoNotAllocate(t, m.Proc(0), own, shared)
}
