package abortable

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"runtime/trace"
	"strings"
	"sync"
	"testing"
	"time"

	"sublock/abortable/obs"
	"sublock/internal/promtext"
)

// Observed-path integration tests: a collector attached via SetObserver
// must see every passage, and the endpoint must stay scrapeable (and
// lint-clean) while the lock is churning under -race.

func TestLockObserverCountsPassages(t *testing.T) {
	lk := New(Config{MaxHandles: 8})
	m := obs.New("lk", obs.Config{ProfileLabels: true})
	lk.SetObserver(m)

	h, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const passages = 10
	for i := 0; i < passages; i++ {
		if !h.Enter() {
			t.Fatal("uncontended Enter failed")
		}
		h.Exit()
	}

	s := m.Snapshot()
	if s.Acquires != passages {
		t.Errorf("Acquires = %d, want %d", s.Acquires, passages)
	}
	if s.Arrivals != passages {
		t.Errorf("Arrivals = %d, want %d", s.Arrivals, passages)
	}
	if s.Acquire.Count() != passages {
		t.Errorf("acquire histogram count = %d, want %d", s.Acquire.Count(), passages)
	}
	if s.Handoff.Count() != passages {
		t.Errorf("handoff histogram count = %d, want %d", s.Handoff.Count(), passages)
	}
	if s.Aborts != 0 {
		t.Errorf("Aborts = %d, want 0", s.Aborts)
	}

	// Detach: counters freeze.
	lk.SetObserver(nil)
	if !h.Enter() {
		t.Fatal("Enter after detach failed")
	}
	h.Exit()
	if got := m.Snapshot().Acquires; got != passages {
		t.Errorf("detached collector advanced to %d acquires", got)
	}
}

func TestLockObserverCountsAborts(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	m := obs.New("lk", obs.Config{})
	lk.SetObserver(m)

	holder, _ := lk.NewHandle()
	waiter, _ := lk.NewHandle()
	if !holder.Enter() {
		t.Fatal("holder Enter failed")
	}
	res := make(chan bool, 1)
	go func() { res <- waiter.Enter() }()
	waitForParks(t, m, 1)
	waiter.Abort()
	if <-res {
		t.Fatal("aborted waiter entered the CS")
	}
	holder.Exit()

	s := m.Snapshot()
	if s.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", s.Aborts)
	}
	if s.Abort.Count() != 1 {
		t.Errorf("abort histogram count = %d, want 1", s.Abort.Count())
	}
	if s.Parks != 1 {
		t.Errorf("Parks = %d, want 1", s.Parks)
	}
	if s.Park.Count() != 1 {
		t.Errorf("park histogram count = %d, want 1", s.Park.Count())
	}
}

func TestOneShotObserver(t *testing.T) {
	l := NewOneShot(2)
	m := obs.New("os", obs.Config{})
	l.SetObserver(m)

	h0, _ := l.NewHandle()
	h1, _ := l.NewHandle()
	if !h0.Enter() {
		t.Fatal("first one-shot Enter failed")
	}
	h1.Abort()
	if h1.Enter() {
		t.Fatal("pre-aborted one-shot Enter acquired")
	}
	h0.Exit()

	s := m.Snapshot()
	if s.Acquires != 1 || s.Aborts != 1 {
		t.Errorf("snapshot Acquires=%d Aborts=%d, want 1/1", s.Acquires, s.Aborts)
	}
	if s.Arrivals != 2 {
		t.Errorf("Arrivals = %d, want 2", s.Arrivals)
	}
	if s.Handoff.Count() != 1 {
		t.Errorf("handoff count = %d, want 1", s.Handoff.Count())
	}
}

func TestPoolObserver(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	p, err := NewHandlePool(lk, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New("pool", obs.Config{})
	p.SetObserver(m)

	// Uncontended borrow.
	h := p.Enter()
	// Contended borrow: a second borrower must block until Release.
	got := make(chan *Handle)
	go func() { got <- p.Enter() }()
	for m.Snapshot().BorrowWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Release(h)
	p.Release(<-got)

	// TryEnter borrow.
	if h := p.TryEnter(); h != nil {
		p.Release(h)
	}
	// EnterContext borrow.
	if h, err := p.EnterContext(context.Background()); err == nil {
		p.Release(h)
	}

	s := m.Snapshot()
	if s.Borrows != 4 {
		t.Errorf("Borrows = %d, want 4", s.Borrows)
	}
	if s.BorrowWaits != 1 {
		t.Errorf("BorrowWaits = %d, want 1", s.BorrowWaits)
	}
	if s.Borrow.Count() != s.Borrows {
		t.Errorf("borrow histogram count = %d, want %d", s.Borrow.Count(), s.Borrows)
	}
}

// TestObservedEnterExitDoesNotAllocate: every handle type's passage is
// allocation-free, with a collector attached (labels on, tracing
// unconfigured: recording is atomic adds plus clock reads) and without
// one. Each case builds its lock with the collector m attached (nil
// detaches) and returns one uncontended passage.
func TestObservedEnterExitDoesNotAllocate(t *testing.T) {
	const (
		runs = 512
		warm = 16 // passages before measuring, to fill any pool
		// single-use handles: AllocsPerRun runs the passage once more
		handles = runs + warm + 1
	)
	ctx := context.Background()
	pool := func(m *obs.Metrics) *HandlePool {
		lk := New(Config{MaxHandles: 1})
		lk.SetObserver(m)
		p, err := NewHandlePool(lk, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.SetObserver(m)
		return p
	}
	cases := []struct {
		name  string
		setup func(m *obs.Metrics) (passage func() bool)
	}{
		{"Lock", func(m *obs.Metrics) func() bool {
			lk := New(Config{MaxHandles: 4 * runs})
			lk.SetObserver(m)
			return singleUse(t, handles, lk.NewHandle)
		}},
		{"OneShot", func(m *obs.Metrics) func() bool {
			l := NewOneShot(handles)
			l.SetObserver(m)
			return singleUse(t, handles, l.NewHandle)
		}},
		{"HandlePool.Enter", func(m *obs.Metrics) func() bool {
			p := pool(m)
			return func() bool {
				p.Release(p.Enter())
				return true
			}
		}},
		{"HandlePool.EnterContext", func(m *obs.Metrics) func() bool {
			p := pool(m)
			return func() bool {
				h, err := p.EnterContext(ctx)
				if err != nil {
					return false
				}
				p.Release(h)
				return true
			}
		}},
	}
	for _, c := range cases {
		for _, observed := range []bool{false, true} {
			name := c.name + "/unobserved"
			var m *obs.Metrics
			if observed {
				name = c.name + "/observed"
				m = obs.New("alloc", obs.Config{ProfileLabels: true})
			}
			t.Run(name, func(t *testing.T) {
				passage := c.setup(m)
				for w := 0; w < warm; w++ {
					if !passage() {
						t.Fatal("uncontended warm-up passage failed")
					}
				}
				avg := testing.AllocsPerRun(runs, func() {
					if !passage() {
						t.Fatal("uncontended passage failed")
					}
				})
				if avg != 0 {
					t.Errorf("Enter/Exit allocates %.1f objects per passage, want 0", avg)
				}
				if m != nil {
					if got := m.Snapshot().Acquires; got < runs {
						t.Errorf("collector saw %d acquires, want >= %d", got, runs)
					}
				}
			})
		}
	}
}

// singleUse makes n handles with newHandle and returns a passage that
// enters and exits the next of them, so that each handle passes once.
func singleUse[H interface {
	Enter() bool
	Exit()
}](t *testing.T, n int, newHandle func() (H, error)) func() bool {
	hs := make([]H, n)
	for i := range hs {
		h, err := newHandle()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	i := 0
	return func() bool {
		h := hs[i]
		i++
		if !h.Enter() {
			return false
		}
		h.Exit()
		return true
	}
}

// TestTraceCapturesPassageRegions: with Trace configured and a runtime
// trace being captured, every passage is a "lock:<name>" task whose phases
// are the doorway/wait/cs/exit regions. Task and region names land in the
// trace's string table as a length byte followed by the raw name, so the
// bytes are searched for exactly that: the bare short names ("cs", "wait")
// also occur in a trace without any passage tasks.
func TestTraceCapturesPassageRegions(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	lk.SetObserver(obs.New("traced", obs.Config{Trace: true}))
	h, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("runtime trace unavailable (already capturing?): %v", err)
	}
	defer trace.Stop() // on the failure path; Stop is a no-op once stopped
	for i := 0; i < 4; i++ {
		if !h.Enter() {
			t.Fatal("uncontended traced Enter failed")
		}
		h.Exit()
	}
	trace.Stop()
	for _, name := range []string{"lock:traced", "doorway", "wait", "cs", "exit"} {
		if !bytes.Contains(buf.Bytes(), append([]byte{byte(len(name))}, name...)) {
			t.Errorf("trace has no %q task or region", name)
		}
	}
}

// TestScrapeUnderChurn races the metrics endpoint against heavy lock
// traffic: 128 goroutines churn an observed Lock (with aborts, parks, and
// instance switches in play) while the scraper repeatedly fetches and
// lints the Prometheus exposition. Run under -race this is the data-race
// guard for the whole recording/snapshot surface.
func TestScrapeUnderChurn(t *testing.T) {
	const (
		churners = 128
		passages = 200
	)
	lk := New(Config{MaxHandles: churners})
	m := obs.New("churn", obs.Config{ProfileLabels: true})
	lk.SetObserver(m)

	reg := obs.NewRegistry()
	reg.MustRegister(m)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h, err := lk.NewHandle()
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < passages; n++ {
				if id%4 == 3 && n%8 == 7 {
					// Keep the abort paths hot: pre-signal some attempts.
					h.Abort()
				}
				if h.Enter() {
					h.Exit()
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	scrapes := 0
	for {
		body := scrape()
		scrapes++
		for _, err := range promtext.Lint(strings.NewReader(body)) {
			t.Errorf("scrape %d lint: %v", scrapes, err)
		}
		select {
		case <-done:
			// Final quiescent scrape must account every passage.
			body := scrape()
			if !strings.Contains(body, `abortable_doorway_arrivals_total{lock="churn"}`) {
				t.Error("final scrape missing doorway arrivals series")
			}
			s := m.Snapshot()
			if s.Acquires+s.Aborts != churners*passages {
				t.Errorf("passages recorded = %d acquires + %d aborts, want %d total",
					s.Acquires, s.Aborts, churners*passages)
			}
			if s.Arrivals < s.Acquires {
				t.Errorf("arrivals %d < acquires %d", s.Arrivals, s.Acquires)
			}
			return
		default:
		}
	}
}
