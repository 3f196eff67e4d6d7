package rmr

// Substrate microbenchmarks. Every experiment in the repository is built on
// two hot paths — Proc's operation path (BenchmarkMemOps) and the
// Explorer's schedule replay loop (BenchmarkExplorerThroughput) — so their
// throughput bounds how large a configuration any experiment can afford.
// Run them with go test -run '^$' -bench 'BenchmarkMemOps|BenchmarkExplorerThroughput'
// -benchmem ./rmr/ to follow the trajectory across changes.

import (
	"fmt"
	"testing"
)

// benchMemOps hammers the operation path with 8 processes whose operations
// one goroutine issues in turn: each process mostly spins on its own word
// (cached under CC, local under DSM) with periodic updates and one shared
// F&A — the access mix of a queue lock. The reported ops/s metric
// aggregates all processes.
func benchMemOps(b *testing.B, model Model) {
	benchMemOpsCost(b, model, nil)
}

// benchMemOpsCost is benchMemOps with a cost model installed; nil leaves
// the default Unit accounting.
func benchMemOpsCost(b *testing.B, model Model, cm CostModel) {
	const procs = 8
	m := NewMemory(model, procs, nil)
	shared := m.Alloc(0)
	var spin [procs]Addr
	for i := range spin {
		spin[i] = m.AllocLocal(i, 0)
	}
	if cm != nil {
		m.SetCostModel(cm)
	}
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		for id, a := range spin {
			p := m.Proc(id)
			switch j & 7 {
			case 0:
				p.FAA(shared, 1)
			case 1:
				p.CAS(a, 0, 1)
			case 2:
				p.Write(a, uint64(j))
			default:
				p.Read(a)
			}
		}
	}
	b.ReportMetric(float64(procs)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkMemOps(b *testing.B) {
	b.Run("CC/procs=8", func(b *testing.B) { benchMemOps(b, CC) })
	b.Run("DSM/procs=8", func(b *testing.B) { benchMemOps(b, DSM) })
}

// BenchmarkCostModelMemOps measures the cost-model seam's overhead against
// BenchmarkMemOps' configuration: cost=unit is the seam's fast path (a nil
// model pointer, expected within noise of BenchmarkMemOps itself) and the
// sampling models add one hash + table lookup per charged op. Named so that
// a 'BenchmarkMemOps' pattern does not pick it up — it is an overhead
// guard, not a trajectory benchmark.
func BenchmarkCostModelMemOps(b *testing.B) {
	for _, name := range []string{"unit", "ccnuma", "dsmremote"} {
		cm, err := NewCostModel(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("cost="+name+"/CC/procs=8", func(b *testing.B) { benchMemOpsCost(b, CC, cm) })
		b.Run("cost="+name+"/DSM/procs=8", func(b *testing.B) { benchMemOpsCost(b, DSM, cm) })
	}
}

// spinLockBody is a 3-process CAS spin-lock body: each process acquires,
// bumps a counter, releases. It is the Explorer workload: small enough that
// a bounded tree is explored in milliseconds, real enough (spin loop +
// critical section) that replay cost matches the E8 property tests.
func spinLockBody(s *Scheduler, maxSteps int) error {
	const procs = 3
	m := NewMemory(CC, procs, s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	for i := 0; i < procs; i++ {
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
	if err := s.Run(maxSteps); err != nil {
		for i := 0; i < procs; i++ {
			m.Proc(i).SignalAbort()
		}
		s.Drain()
		return err
	}
	if got := m.Peek(count); got != procs {
		return fmt.Errorf("count = %d, want %d", got, procs)
	}
	return nil
}

// mixedLockBody is the E8-shaped explorer workload: two test-and-test-
// and-set contenders plus one process that only touches its own words —
// the structure of the harness's abort-signal process, over a lock that
// spins on reads like the paper's algorithms do. The full choice tree
// multiplies the contention tree by every placement of the independent
// process's steps and every interleaving of the commuting read spins;
// partial-order reduction collapses both, which is where its leverage on
// the property suites comes from.
func mixedLockBody(s *Scheduler, maxSteps int) error {
	const procs = 3
	const sideOps = 5
	m := NewMemory(CC, procs, s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	side := m.AllocN(sideOps, 0)
	for i := 0; i < 2; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			for {
				if p.Read(lock) == 0 && p.CAS(lock, 0, 1) {
					break
				}
				if p.AbortSignal() {
					return
				}
			}
			p.FAA(count, 1)
			p.Write(lock, 0)
		})
	}
	p := m.Proc(2)
	s.GoProc(2, func() {
		for j := 0; j < sideOps; j++ {
			p.Write(side+Addr(j), uint64(j)+1)
		}
	})
	if err := s.Run(maxSteps); err != nil {
		for i := 0; i < procs; i++ {
			m.Proc(i).SignalAbort()
		}
		s.Drain()
		return err
	}
	if got := m.Peek(count); got != 2 {
		return fmt.Errorf("count = %d, want 2", got)
	}
	return nil
}

// BenchmarkExplorerThroughput measures bounded-exhaustive exploration on
// the E8-shaped 3-process body, per worker count and reduction mode. Every
// variant exhausts the same uncapped tree, so ns/op is the wall-clock to
// cover it and the por=on / por=off ratio is the reduction's effective
// speedup; replays/s is the raw replay rate.
func BenchmarkExplorerThroughput(b *testing.B) {
	const maxSteps = 13
	for _, reduction := range []Reduction{NoReduction, SleepSets} {
		por := "off"
		if reduction == SleepSets {
			por = "on"
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("por=%s/Workers=%d", por, workers), func(b *testing.B) {
				var res Result
				for i := 0; i < b.N; i++ {
					e := &Explorer{MaxSteps: maxSteps, Workers: workers, Reduction: reduction}
					var err error
					res, err = e.Run(3, mixedLockBody)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Exhausted {
						b.Fatal("tree not exhausted")
					}
				}
				b.ReportMetric(float64(res.Replays())*float64(b.N)/b.Elapsed().Seconds(), "replays/s")
				b.ReportMetric(float64(res.Explored), "explored")
				b.ReportMetric(float64(res.Equivalent), "equivalent")
			})
		}
	}
}
