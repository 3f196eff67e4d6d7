package rmr

import (
	"sync"
	"testing"
)

func TestCCReadCaching(t *testing.T) {
	m := NewMemory(CC, 2, nil)
	a := m.Alloc(7)
	p0, p1 := m.Proc(0), m.Proc(1)

	if got := p0.Read(a); got != 7 {
		t.Fatalf("Read = %d, want 7", got)
	}
	if got := p0.RMRs(); got != 1 {
		t.Fatalf("first read RMRs = %d, want 1", got)
	}
	// Repeated reads of a cached word are free.
	for i := 0; i < 10; i++ {
		p0.Read(a)
	}
	if got := p0.RMRs(); got != 1 {
		t.Fatalf("cached re-read RMRs = %d, want 1", got)
	}
	// Another process's write invalidates the copy: next read costs 1 RMR.
	p1.Write(a, 9)
	if got := p1.RMRs(); got != 1 {
		t.Fatalf("write RMRs = %d, want 1", got)
	}
	if got := p0.Read(a); got != 9 {
		t.Fatalf("Read after write = %d, want 9", got)
	}
	if got := p0.RMRs(); got != 2 {
		t.Fatalf("post-invalidation read RMRs = %d, want 2", got)
	}
}

func TestCCWriterKeepsCopy(t *testing.T) {
	m := NewMemory(CC, 2, nil)
	a := m.Alloc(0)
	p0 := m.Proc(0)

	p0.Write(a, 5) // 1 RMR, but p0 now holds the line
	p0.Read(a)     // free
	p0.Read(a)     // free
	if got := p0.RMRs(); got != 1 {
		t.Fatalf("RMRs = %d, want 1 (reads after own write are local)", got)
	}
}

func TestCCUpdatesAlwaysCharge(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(0)
	p := m.Proc(0)

	p.Write(a, 1)
	p.Write(a, 2)
	p.FAA(a, 1)
	p.Swap(a, 10)
	if ok := p.CAS(a, 10, 11); !ok {
		t.Fatal("CAS(10, 11) should succeed")
	}
	if ok := p.CAS(a, 999, 0); ok {
		t.Fatal("CAS(999, 0) should fail")
	}
	// §2: every write, CAS, F&A (and SWAP) is an RMR, success or not.
	if got := p.RMRs(); got != 6 {
		t.Fatalf("RMRs = %d, want 6", got)
	}
	if got := m.Peek(a); got != 11 {
		t.Fatalf("final value = %d, want 11", got)
	}
}

func TestCCSpinCostBoundedByInvalidations(t *testing.T) {
	m := NewMemory(CC, 2, nil)
	a := m.Alloc(0)
	spinner, writer := m.Proc(0), m.Proc(1)

	// Spin 100 times, with the writer updating twice along the way.
	for i := 0; i < 50; i++ {
		spinner.Read(a)
	}
	writer.Write(a, 1)
	for i := 0; i < 50; i++ {
		spinner.Read(a)
	}
	writer.Write(a, 2)
	spinner.Read(a)

	// 1 initial miss + 2 invalidation misses.
	if got := spinner.RMRs(); got != 3 {
		t.Fatalf("spinner RMRs = %d, want 3", got)
	}
}

func TestDSMOwnership(t *testing.T) {
	m := NewMemory(DSM, 2, nil)
	local := m.AllocLocal(0, 0)
	global := m.Alloc(0)
	p0, p1 := m.Proc(0), m.Proc(1)

	// Owner operations are always free, even repeated writes.
	p0.Write(local, 1)
	p0.Read(local)
	p0.FAA(local, 1)
	if got := p0.RMRs(); got != 0 {
		t.Fatalf("owner RMRs = %d, want 0", got)
	}
	// Non-owner operations always cost, including repeated reads (no cache).
	p1.Read(local)
	p1.Read(local)
	if got := p1.RMRs(); got != 2 {
		t.Fatalf("non-owner RMRs = %d, want 2", got)
	}
	// A word with no owner is remote to everyone.
	p0.Read(global)
	if got := p0.RMRs(); got != 1 {
		t.Fatalf("global-word RMRs = %d, want 1", got)
	}
}

func TestFAAReturnsOldAndWraps(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(10)
	p := m.Proc(0)

	if got := p.FAA(a, 5); got != 10 {
		t.Fatalf("FAA old = %d, want 10", got)
	}
	if got := m.Peek(a); got != 15 {
		t.Fatalf("value = %d, want 15", got)
	}
	// Subtraction via two's complement.
	if got := p.FAA(a, ^uint64(0)); got != 15 {
		t.Fatalf("FAA(-1) old = %d, want 15", got)
	}
	if got := m.Peek(a); got != 14 {
		t.Fatalf("value = %d, want 14", got)
	}
}

func TestSwapReturnsOld(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(3)
	p := m.Proc(0)
	if got := p.Swap(a, 4); got != 3 {
		t.Fatalf("Swap old = %d, want 3", got)
	}
	if got := m.Peek(a); got != 4 {
		t.Fatalf("value = %d, want 4", got)
	}
}

func TestAllocN(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	base := m.AllocN(8, 42)
	p := m.Proc(0)
	for i := 0; i < 8; i++ {
		if got := p.Read(base + Addr(i)); got != 42 {
			t.Fatalf("word %d = %d, want 42", i, got)
		}
	}
	if got := m.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
}

func TestPokeInvalidates(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(0)
	p := m.Proc(0)
	p.Read(a)
	m.Poke(a, 77)
	if got := p.Read(a); got != 77 {
		t.Fatalf("Read after Poke = %d, want 77", got)
	}
	// Poke invalidated the copy, so the re-read cost an RMR (2 total).
	if got := p.RMRs(); got != 2 {
		t.Fatalf("RMRs = %d, want 2", got)
	}
}

func TestConcurrentFAAIsAtomic(t *testing.T) {
	const procs, per = 8, 1000
	m := NewMemory(CC, procs, nil)
	a := m.Alloc(0)

	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := m.Proc(id)
			for j := 0; j < per; j++ {
				p.FAA(a, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := m.Peek(a); got != procs*per {
		t.Fatalf("counter = %d, want %d", got, procs*per)
	}
}

func TestConcurrentCASUniqueWinner(t *testing.T) {
	const procs = 8
	m := NewMemory(CC, procs, nil)
	a := m.Alloc(0)

	wins := make(chan int, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if m.Proc(id).CAS(a, 0, uint64(id)+1) {
				wins <- id
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("CAS winners = %v, want exactly one", winners)
	}
	if got := m.Peek(a); got != uint64(winners[0])+1 {
		t.Fatalf("value = %d, want %d", got, winners[0]+1)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, tt := range []struct {
		name string
		fn   func()
	}{
		{"bad model", func() { NewMemory(Model(0), 1, nil) }},
		{"zero procs", func() { NewMemory(CC, 0, nil) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestAddressOutOfRange(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Proc(0).Read(Addr(0))
}

func TestModelString(t *testing.T) {
	if CC.String() != "CC" || DSM.String() != "DSM" {
		t.Fatalf("Model strings = %q, %q", CC.String(), DSM.String())
	}
	if got := Model(9).String(); got != "Model(9)" {
		t.Fatalf("unknown model string = %q", got)
	}
}

// TestMemoryResetMatchesNewMemory: a memory used under a gate, an observer,
// a cost model and abort signals, then Reset, behaves like a fresh one —
// the same addresses, values, coherence state, labels and per-process
// counts for the same workload.
func TestMemoryResetMatchesNewMemory(t *testing.T) {
	type outcome struct {
		addrs  [3]Addr
		vals   [3]uint64
		rmrs   [2]int64
		labels int
		abort  bool
	}
	work := func(m *Memory) outcome {
		var o outcome
		o.addrs[0] = m.Alloc(5)
		o.addrs[1] = m.AllocLocal(1, 6)
		o.addrs[2] = m.AllocN(20, 7) // spills past the first segment
		m.Label(o.addrs[2], 20, "block")
		p0, p1 := m.Proc(0), m.Proc(1)
		p0.Read(o.addrs[0])
		p1.Write(o.addrs[1], 8)
		p0.CAS(o.addrs[2], 7, 9)
		p1.Read(o.addrs[2])
		for i, a := range o.addrs {
			o.vals[i] = m.Peek(a)
		}
		o.rmrs = [2]int64{p0.RMRs(), p1.RMRs()}
		o.labels = len(m.Labels())
		o.abort = p0.AbortSignal()
		return o
	}
	for _, model := range []Model{CC, DSM} {
		want := work(NewMemory(model, 2, nil))

		m := NewMemory(model, 2, nil)
		m.Alloc(1)
		m.AllocN(40, 3)
		m.Label(0, 1, "old")
		m.SetCostModel(NewCCNuma(1))
		m.SetTracer(func(Event) {})
		m.Proc(0).SignalAbort()
		m.Proc(0).Read(0)
		s := NewScheduler(2, RoundRobinPick())
		m.SetGate(s)
		m.Reset()

		if m.Size() != 0 || m.CostModel() != Unit || len(m.Labels()) != 1 {
			t.Fatalf("%v: after Reset size=%d cost=%v labels=%v, want an empty memory",
				model, m.Size(), m.CostModel().Name(), m.Labels())
		}
		if got := work(m); got != want {
			t.Fatalf("%v: reset memory gave %+v, a fresh one %+v", model, got, want)
		}
	}
}
