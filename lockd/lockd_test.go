package lockd

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sublock/internal/testutil"
)

// fastCfg returns a config tuned for tests: aggressive sweeping and short
// defaults so lease-expiry paths run in milliseconds.
func fastCfg() Config {
	return Config{
		Shards:        4,
		PoolSize:      4,
		SweepInterval: 5 * time.Millisecond,
		TTL:           time.Second,
		Wait:          time.Second,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestAcquireReleaseCycle(t *testing.T) {
	s := newTestServer(t, fastCfg())
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "alpha", 0, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if ls.Token == 0 {
		t.Fatal("fencing token must be nonzero")
	}
	info, ok := s.Inspect("alpha")
	if !ok || !info.Held || info.Token != ls.Token {
		t.Fatalf("inspect = %+v, %v; want held with token %d", info, ok, ls.Token)
	}
	if err := s.Release("alpha", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
	// Double release is a fencing rejection, not a success.
	if err := s.Release("alpha", ls.Token); !errors.Is(err, ErrStale) {
		t.Fatalf("double release = %v, want ErrStale", err)
	}

	ls2, err := s.Acquire(ctx, "alpha", 0, 0)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	if ls2.Token <= ls.Token {
		t.Fatalf("tokens must increase: %d then %d", ls.Token, ls2.Token)
	}
}

func TestBadNamesAndUnknown(t *testing.T) {
	s := newTestServer(t, fastCfg())
	ctx := context.Background()

	if _, err := s.Acquire(ctx, "", 0, 0); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty name = %v, want ErrBadName", err)
	}
	long := make([]byte, MaxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.Acquire(ctx, string(long), 0, 0); !errors.Is(err, ErrBadName) {
		t.Fatalf("oversized name = %v, want ErrBadName", err)
	}
	if err := s.Release("never-seen", 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown release = %v, want ErrUnknown", err)
	}
	if _, err := s.Renew("never-seen", 1, 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown renew = %v, want ErrUnknown", err)
	}
	if _, ok := s.Inspect("never-seen"); ok {
		t.Fatal("inspect of unknown name reported ok")
	}
}

// TestLeaseExpiryReclaim is the crashed-holder scenario: the holder never
// releases, the sweeper reclaims at TTL, the next waiter is granted a
// larger token, and the dead holder's release is fenced out.
func TestLeaseExpiryReclaim(t *testing.T) {
	s := newTestServer(t, fastCfg())
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "crashy", 50*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Simulate the crash: no release. The next acquire must be granted
	// once the sweeper reclaims the lease.
	start := time.Now()
	ls2, err := s.Acquire(ctx, "crashy", 0, 2*time.Second)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("reclaim took %v, want prompt reclaim after the 50ms TTL", waited)
	}
	if ls2.Token <= ls.Token {
		t.Fatalf("reclaimed grant token %d not above expired token %d", ls2.Token, ls.Token)
	}
	// The crashed holder's late release must be rejected by fencing.
	if err := s.Release("crashy", ls.Token); !errors.Is(err, ErrStale) {
		t.Fatalf("stale release = %v, want ErrStale", err)
	}
	st := s.Stats()
	if st.Expiries < 1 {
		t.Fatalf("Stats().Expiries = %d, want >= 1", st.Expiries)
	}
	if st.FencingRejects < 1 {
		t.Fatalf("Stats().FencingRejects = %d, want >= 1", st.FencingRejects)
	}
	if err := s.Release("crashy", ls2.Token); err != nil {
		t.Fatalf("live release: %v", err)
	}
}

// TestReleaseAfterExpiry: with the sweeper effectively disabled, a
// matching-token release on an expired lease reclaims the lock but reports
// ErrExpired so the holder learns mutual exclusion may have lapsed.
func TestReleaseAfterExpiry(t *testing.T) {
	cfg := fastCfg()
	cfg.SweepInterval = time.Hour
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "late", 30*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := s.Release("late", ls.Token); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired release = %v, want ErrExpired", err)
	}
	// The reclaim freed the lock: the next acquire is granted immediately.
	ls2, err := s.Acquire(ctx, "late", 0, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("acquire after expired release: %v", err)
	}
	if ls2.Token <= ls.Token {
		t.Fatalf("token did not advance: %d then %d", ls.Token, ls2.Token)
	}
}

// testClock is a Config.now that only the test moves: a nanosecond count,
// atomic because the sweeper reads it from its own goroutine.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestRenewExtendsLease renews an 80 ms lease every 60 ms of a test clock,
// past several multiples of its TTL, while the sweeper runs against the
// same clock: the lease stays live and releases cleanly.
func TestRenewExtendsLease(t *testing.T) {
	clk := newTestClock()
	cfg := fastCfg()
	cfg.now = clk.now
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "renewed", 80*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Keep renewing past several multiples of the original TTL.
	for i := 0; i < 8; i++ {
		clk.advance(60 * time.Millisecond)
		if _, err := s.Renew("renewed", ls.Token, 80*time.Millisecond); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if err := s.Release("renewed", ls.Token); err != nil {
		t.Fatalf("release after renews = %v, want success (lease should still be live)", err)
	}
}

// TestLeaseLapsesWithoutRenew is TestRenewExtendsLease's negative case:
// with no renewal, moving the clock past the TTL expires the lease.
func TestLeaseLapsesWithoutRenew(t *testing.T) {
	clk := newTestClock()
	cfg := fastCfg()
	cfg.SweepInterval = time.Hour // the release, not the sweeper, finds the expiry
	cfg.now = clk.now
	s := newTestServer(t, cfg)

	ls, err := s.Acquire(context.Background(), "lapsed", 80*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	clk.advance(80 * time.Millisecond)
	if info, _ := s.Inspect("lapsed"); !info.Held || info.Remain != 0 {
		t.Fatalf("at the TTL: inspect = %+v, want held with no time remaining", info)
	}
	clk.advance(time.Millisecond)
	if err := s.Release("lapsed", ls.Token); !errors.Is(err, ErrExpired) {
		t.Fatalf("release past the TTL = %v, want ErrExpired", err)
	}
}

func TestRenewRejections(t *testing.T) {
	clk := newTestClock()
	cfg := fastCfg()
	cfg.SweepInterval = time.Hour
	cfg.now = clk.now
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "r", 30*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := s.Renew("r", ls.Token+1, 0); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-token renew = %v, want ErrStale", err)
	}
	clk.advance(60 * time.Millisecond)
	if _, err := s.Renew("r", ls.Token, 0); !errors.Is(err, ErrExpired) {
		t.Fatalf("post-expiry renew = %v, want ErrExpired", err)
	}
}

// TestFencingMonotonicAcrossRetire: tokens keep increasing even after the
// name's lock is idle-retired and re-created, because the fencing counter
// lives on the shard, not the entry.
func TestFencingMonotonicAcrossRetire(t *testing.T) {
	cfg := fastCfg()
	cfg.IdleRetire = 20 * time.Millisecond
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "phoenix", 0, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := s.Release("phoenix", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Locks != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle entry never retired; stats %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().Retired; got < 1 {
		t.Fatalf("Stats().Retired = %d, want >= 1", got)
	}
	ls2, err := s.Acquire(ctx, "phoenix", 0, 0)
	if err != nil {
		t.Fatalf("re-acquire after retire: %v", err)
	}
	if ls2.Token <= ls.Token {
		t.Fatalf("token regressed across retire: %d then %d", ls.Token, ls2.Token)
	}
}

// TestOverloadShedding: with the shard waiter budget saturated on a hot
// name, excess acquires are shed immediately with ErrOverloaded and the
// in-flight waiter count stays bounded by the budget.
func TestOverloadShedding(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 1
	cfg.ShardWaiterBudget = 4
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "hot", time.Minute, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	const attackers = 32
	var shed, waiting atomic.Int64
	var wg sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < attackers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Acquire(wctx, "hot", 0, 30*time.Second)
			switch {
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			case errors.Is(err, context.Canceled):
				waiting.Add(1)
			case err == nil:
				t.Error("attacker acquired a lock held for a minute")
			}
		}()
	}

	// Wait until every attacker has either been shed or parked, then check
	// the waiter population never exceeded the budget.
	deadline := time.Now().Add(2 * time.Second)
	for shed.Load()+s.Stats().Waiting < attackers {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if w := s.Stats().Waiting; w > int64(cfg.ShardWaiterBudget) {
		t.Fatalf("waiting = %d, want <= budget %d", w, cfg.ShardWaiterBudget)
	}
	if got := shed.Load(); got < attackers-int64(cfg.ShardWaiterBudget) {
		t.Fatalf("shed = %d, want >= %d", got, attackers-cfg.ShardWaiterBudget)
	}
	if got := s.Stats().Sheds; got < 1 {
		t.Fatalf("Stats().Sheds = %d, want >= 1", got)
	}

	wcancel()
	wg.Wait()
	if err := s.Release("hot", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestAdmitNeverOvershoots: workers take and give back units of one gate
// while a sampler reads it, and every read stays within the limit. Each
// holder yields while it holds, so the others are shed; a gate that adds
// first and takes the unit back on a shed would read above the limit
// between its two adds.
func TestAdmitNeverOvershoots(t *testing.T) {
	const limit, workers, rounds = 1, 4, 500000
	var n, over, sheds atomic.Int64 // over: a read above the limit
	observe := func() {
		if v := n.Load(); v > limit {
			over.Store(v)
		}
	}
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			default:
				observe()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !admit(&n, limit) {
					sheds.Add(1)
					continue
				}
				observe()
				runtime.Gosched()
				n.Add(-1)
			}
		}()
	}
	wg.Wait()
	close(done)
	<-sampled
	if v := over.Load(); v != 0 {
		t.Errorf("gate read %d, above its limit %d", v, limit)
	}
	if sheds.Load() == 0 {
		t.Error("no request was shed; the gate was never contended")
	}
	if v := n.Load(); v != 0 {
		t.Errorf("gate holds %d units after every holder gave its unit back", v)
	}
}

// TestGlobalInFlightGate: the cross-shard gate sheds before any shard
// budget is consulted.
func TestGlobalInFlightGate(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 1
	cfg.MaxInFlight = 1
	s := newTestServer(t, cfg)
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "gate", time.Minute, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Acquire(wctx, "gate", 0, 30*time.Second) // occupies the only slot
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never registered in flight; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Acquire(ctx, "other", 0, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gated acquire = %v, want ErrOverloaded", err)
	}
	if got := s.Stats().GlobalSheds; got < 1 {
		t.Fatalf("Stats().GlobalSheds = %d, want >= 1", got)
	}
	wcancel()
	<-done
	if err := s.Release("gate", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestTableFullAndLRU: at the lock-table cap, creating a new name evicts
// the least-recently-used idle entry; with everything held the create is
// shed with ErrTableFull.
func TestTableFullAndLRU(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 1
	cfg.MaxLocksPerShard = 1
	cfg.SweepInterval = time.Hour // eviction must come from the LRU path
	s := newTestServer(t, cfg)
	ctx := context.Background()

	lsA, err := s.Acquire(ctx, "a", 0, 0)
	if err != nil {
		t.Fatalf("acquire a: %v", err)
	}
	if err := s.Release("a", lsA.Token); err != nil {
		t.Fatalf("release a: %v", err)
	}
	lsB, err := s.Acquire(ctx, "b", time.Minute, 0)
	if err != nil {
		t.Fatalf("acquire b (should evict idle a): %v", err)
	}
	st := s.Stats()
	if st.Locks != 1 || st.Retired < 1 {
		t.Fatalf("after eviction: locks=%d retired=%d, want 1 and >=1", st.Locks, st.Retired)
	}
	if _, err := s.Acquire(ctx, "c", 0, 50*time.Millisecond); !errors.Is(err, ErrTableFull) {
		t.Fatalf("acquire c with table full of held locks = %v, want ErrTableFull", err)
	}
	if err := s.Release("b", lsB.Token); err != nil {
		t.Fatalf("release b: %v", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := newTestServer(t, fastCfg())
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "slow", time.Minute, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	start := time.Now()
	if _, err := s.Acquire(ctx, "slow", 0, 50*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("bounded wait = %v, want ErrWaitTimeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timeout took %v, want prompt return after the 50ms budget", waited)
	}
	if got := s.Stats().Timeouts; got != 1 {
		t.Fatalf("Stats().Timeouts = %d, want 1", got)
	}
	if err := s.Release("slow", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestWaiterCancelReaped: cancelling a parked waiter's context unparks it
// promptly and leaves no goroutine behind — the wired-through bounded
// abort.
func TestWaiterCancelReaped(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(fastCfg())
	defer s.Close()
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "parked", time.Minute, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(wctx, "parked", 0, 30*time.Second)
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter not reaped within 2s")
	}
	if err := s.Release("parked", ls.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
	s.Close()
	testutil.WaitGoroutinesSettle(t, base, 3*time.Second)
}

// TestDrain: draining sheds new acquires, aborts every parked waiter
// within the deadline, and leaves no goroutine behind.
func TestDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(fastCfg())
	defer s.Close()
	ctx := context.Background()

	ls, err := s.Acquire(ctx, "drainme", time.Minute, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := s.Acquire(ctx, "drainme", 0, 30*time.Second)
			errs <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Waiting != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	dctx, dcancel := context.WithTimeout(ctx, 2*time.Second)
	defer dcancel()
	start := time.Now()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("drain took %v, want within the 2s deadline", took)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("drained waiter = %v, want ErrDraining", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("drained waiter never returned")
		}
	}
	if _, err := s.Acquire(ctx, "fresh", 0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain acquire = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	// Held leases survive drain; release still works so holders can let go.
	if err := s.Release("drainme", ls.Token); err != nil {
		t.Fatalf("release during drain: %v", err)
	}
	s.Close()
	testutil.WaitGoroutinesSettle(t, base, 3*time.Second)
}

// TestMutualExclusion hammers one name from many goroutines through the
// full acquire/release path and asserts no two leases overlap.
func TestMutualExclusion(t *testing.T) {
	cfg := fastCfg()
	cfg.PoolSize = 2
	s := newTestServer(t, cfg)
	ctx := context.Background()

	const (
		goroutines = 8
		rounds     = 25
	)
	var inCS atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ls, err := s.Acquire(ctx, "cs", time.Minute, 30*time.Second)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if n := inCS.Add(1); n != 1 {
					t.Errorf("mutual exclusion violated: %d holders", n)
				}
				inCS.Add(-1)
				if err := s.Release("cs", ls.Token); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Acquires != goroutines*rounds {
		t.Fatalf("Stats().Acquires = %d, want %d", st.Acquires, goroutines*rounds)
	}
	if st.Held != 0 {
		t.Fatalf("Stats().Held = %d after all releases, want 0", st.Held)
	}
}

// TestManyNamesBounded: far more names than the per-shard cap stay
// memory-bounded through LRU eviction, and every acquire still succeeds.
func TestManyNamesBounded(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 2
	cfg.MaxLocksPerShard = 8
	cfg.SweepInterval = time.Hour
	s := newTestServer(t, cfg)
	ctx := context.Background()

	for i := 0; i < 200; i++ {
		name := "key-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		ls, err := s.Acquire(ctx, name, 0, 0)
		if err != nil {
			t.Fatalf("acquire %q: %v", name, err)
		}
		if err := s.Release(name, ls.Token); err != nil {
			t.Fatalf("release %q: %v", name, err)
		}
	}
	st := s.Stats()
	if st.Locks > cfg.Shards*cfg.MaxLocksPerShard {
		t.Fatalf("live locks = %d, want <= %d", st.Locks, cfg.Shards*cfg.MaxLocksPerShard)
	}
	if st.Retired == 0 {
		t.Fatal("expected LRU retirements with 200 names over a 16-entry table")
	}
}
