package mcs

import (
	"testing"

	"sublock/rmr"
)

func TestSequential(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 1, nil)
	l := New(m)
	h := l.Handle(m.Proc(0))
	for i := 0; i < 5; i++ {
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		h.Exit()
	}
}

func TestMultiplePassages(t *testing.T) {
	// Node reuse across acquisitions: each process performs 3 passages.
	const n, passages = 6, 3
	for seed := int64(0); seed < 10; seed++ {
		s := rmr.NewScheduler(n, rmr.RandomPick(seed))
		m := rmr.NewMemory(rmr.CC, n, nil)
		l := New(m)
		handles := make([]*Handle, n)
		for i := range handles {
			handles[i] = l.Handle(m.Proc(i))
		}
		m.SetGate(s)
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			s.Go(func() {
				for k := 0; k < passages; k++ {
					if handles[i].Enter() {
						counts[i]++
						handles[i].Exit()
					}
				}
			})
		}
		if err := s.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, c := range counts {
			if c != passages {
				t.Fatalf("seed %d: process %d completed %d/%d passages", seed, i, c, passages)
			}
		}
	}
}

func TestUncontendedPassageRMRs(t *testing.T) {
	// The MCS selling point: an uncontended passage is a small constant
	// (SWAP + next write + CAS on exit), independent of anything.
	m := rmr.NewMemory(rmr.CC, 1, nil)
	l := New(m)
	p := m.Proc(0)
	h := l.Handle(p)
	h.Enter()
	h.Exit()
	// Steady state (second passage, caches warm):
	before := p.RMRs()
	h.Enter()
	h.Exit()
	if got := p.RMRs() - before; got > 3 {
		t.Fatalf("uncontended passage RMRs = %d, want ≤ 3", got)
	}
}
