// Package lockd is a sharded lock service over the native abortable lock:
// millions of named locks served over HTTP/JSON, hardened against client
// failure. Every acquire returns a lease — a TTL plus a monotonically
// increasing fencing token per name — so a holder that crashes or
// partitions loses the lock at lease expiry and its stale release is
// rejected by token comparison. Acquire waits are bounded-abortable end to
// end: the request context (cancelled by the client, by its disconnect, or
// by server drain) feeds straight into abortable.EnterContext, so a
// vanished waiter is reaped within the paper's bounded abort budget
// instead of leaking a goroutine.
//
// Robustness mechanisms, in the order a request meets them:
//
//   - a global in-flight gate and a per-shard waiter budget shed excess
//     load with 503 + Retry-After instead of an unbounded goroutine pileup;
//   - names hash (fnv-1a) onto striped shards; each shard lazily
//     instantiates one abortable.Lock + HandlePool per live name and
//     retires idle entries (idle TTL plus an LRU cap), so millions of
//     names stay memory-bounded;
//   - a per-shard expiry sweeper reclaims leases from crashed holders;
//     fencing tokens are drawn from a per-shard monotonic counter, so a
//     token stays comparable across retire/re-create of its name;
//   - Drain stops new acquires, aborts every parked waiter via context
//     cancellation, and waits for in-flight requests under a caller-set
//     deadline.
//
// See docs/LOCKD.md for the API, the lease/fencing semantics, and the
// failure matrix.
package lockd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"sublock/abortable"
	"sublock/abortable/obs"
)

// Defaults for Config fields left zero.
const (
	DefaultShards            = 16
	DefaultPoolSize          = 8
	DefaultShardWaiterBudget = 1024
	DefaultMaxInFlight       = 8192
	DefaultTTL               = 10 * time.Second
	DefaultMaxTTL            = time.Minute
	DefaultWait              = 5 * time.Second
	DefaultMaxWait           = 30 * time.Second
	DefaultSweepInterval     = 100 * time.Millisecond
	DefaultIdleRetire        = time.Minute
	DefaultMaxLocksPerShard  = 1 << 17
	DefaultRetryAfter        = time.Second
	DefaultWriteTimeout      = 5 * time.Second
)

// Config tunes a Server. The zero value selects the defaults above.
type Config struct {
	// Shards is the number of lock-table stripes. More shards mean less
	// map contention and finer-grained sweepers.
	Shards int
	// PoolSize is the number of abortable handles per named lock: the cap
	// on waiters queued *inside* one lock's doorway. Excess acquirers
	// queue on the handle pool (still context-abortable), so a hot name
	// degrades to FIFO-ish borrow order instead of failing.
	PoolSize int
	// ShardWaiterBudget caps in-flight acquires per shard; excess is shed
	// with 503 + Retry-After. This bounds waiter memory under overload.
	ShardWaiterBudget int
	// MaxInFlight caps in-flight acquire requests across all shards.
	MaxInFlight int
	// TTL is the lease duration used when a request asks for none;
	// MaxTTL clamps requested durations.
	TTL, MaxTTL time.Duration
	// Wait is the acquire wait budget used when a request asks for none;
	// MaxWait clamps requested budgets.
	Wait, MaxWait time.Duration
	// SweepInterval paces each shard's expiry/retirement sweeper.
	SweepInterval time.Duration
	// IdleRetire retires a name's lock after this long unheld and
	// unreferenced, keeping the table bounded by the live working set.
	IdleRetire time.Duration
	// MaxLocksPerShard is the hard cap on live names per shard: at the
	// cap, creating a new name evicts the least-recently-used idle entry,
	// or sheds with 503 when every entry is held or in use.
	MaxLocksPerShard int
	// RetryAfter is the hint returned with 503 responses.
	RetryAfter time.Duration
	// WriteTimeout bounds each HTTP response write, so a slow or stalled
	// client cannot pin a handler goroutine.
	WriteTimeout time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

// def replaces a zero config field with its default.
func def[T int | time.Duration](v *T, d T) {
	if *v == 0 {
		*v = d
	}
}

func (c Config) withDefaults() Config {
	def(&c.Shards, DefaultShards)
	def(&c.PoolSize, DefaultPoolSize)
	def(&c.ShardWaiterBudget, DefaultShardWaiterBudget)
	def(&c.MaxInFlight, DefaultMaxInFlight)
	def(&c.TTL, DefaultTTL)
	def(&c.MaxTTL, DefaultMaxTTL)
	def(&c.Wait, DefaultWait)
	def(&c.MaxWait, DefaultMaxWait)
	def(&c.SweepInterval, DefaultSweepInterval)
	def(&c.IdleRetire, DefaultIdleRetire)
	def(&c.MaxLocksPerShard, DefaultMaxLocksPerShard)
	def(&c.RetryAfter, DefaultRetryAfter)
	def(&c.WriteTimeout, DefaultWriteTimeout)
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Sentinel errors returned by the service layer; the HTTP layer maps them
// to status codes and machine-readable codes (see http.go), the client
// maps those back.
var (
	// ErrOverloaded: the global gate or a shard's waiter budget is full.
	ErrOverloaded = errors.New("lockd: overloaded, retry later")
	// ErrTableFull: the shard is at its lock-table cap with nothing
	// evictable (every entry held or in use).
	ErrTableFull = errors.New("lockd: lock table full, retry later")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("lockd: draining")
	// ErrWaitTimeout: the acquire wait budget elapsed before the grant.
	ErrWaitTimeout = errors.New("lockd: wait budget elapsed")
	// ErrStale: the release/renew token does not match the current lease
	// — the fencing rejection.
	ErrStale = errors.New("lockd: stale fencing token")
	// ErrExpired: the token matched but the lease had already expired;
	// the lock was (or is now) reclaimed.
	ErrExpired = errors.New("lockd: lease expired")
	// ErrUnknown: no live lock under that name (never held, or retired).
	ErrUnknown = errors.New("lockd: unknown lock")
	// ErrBadName: empty or oversized lock name.
	ErrBadName = errors.New("lockd: invalid lock name")
)

// MaxNameLen bounds lock names; longer names are rejected, not truncated.
const MaxNameLen = 512

// Lease is a granted acquisition: the holder owns name until Expiry
// unless renewed, and must present Token to release or renew. Tokens are
// monotonically increasing per name — a downstream resource that records
// the largest token it has seen can fence out writes from stale holders.
type Lease struct {
	Name   string
	Token  uint64
	TTL    time.Duration
	Expiry time.Time
}

// entry is one live named lock: the handle pool over the abortable lock,
// which provides mutual exclusion and queueing, and the lease state
// layered on top. refs counts in-flight requests touching the entry (retirement is
// refused while it is nonzero); lastUse drives idle retirement and LRU
// eviction.
type entry struct {
	name    string
	pool    *abortable.HandlePool
	refs    atomic.Int64
	lastUse atomic.Int64 // unix nanos

	mu     sync.Mutex // guards the lease fields below
	held   bool
	token  uint64
	expiry time.Time
	handle *abortable.Handle // the handle holding the lock while held
}

func (e *entry) touch(now time.Time) { e.lastUse.Store(now.UnixNano()) }

// idle reports whether e may be retired: no request pins it and no lease
// holds it. Callers hold sh.mu, under which entryFor pins, so a
// concurrent acquire either pinned first or will re-create the entry.
func (e *entry) idle() bool {
	if e.refs.Load() != 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.held
}

// unpin ends a request's use of e: it stamps the use for idle retirement
// and LRU eviction, then drops the pin.
func (s *Server) unpin(e *entry) {
	e.touch(s.cfg.now())
	e.refs.Add(-1)
}

// shard is one stripe of the lock table, with its own fencing counter,
// waiter budget, sweeper, and metrics. Lock order: shard.mu before
// entry.mu; nothing takes shard.mu while holding an entry.mu.
type shard struct {
	id      int
	entries map[string]*entry
	mu      sync.Mutex

	fence   atomic.Uint64 // monotonic fencing-token source (per shard)
	waiting atomic.Int64  // in-flight acquires (budget usage)
	held    atomic.Int64  // currently held leases

	acquires       atomic.Int64
	timeouts       atomic.Int64
	sheds          atomic.Int64
	expiries       atomic.Int64
	fencingRejects atomic.Int64
	releases       atomic.Int64
	renews         atomic.Int64
	retired        atomic.Int64

	met *obs.Metrics // shared by every entry's lock and handle pool in this shard
}

// Server is the lock service. Create with New, serve the Handler, and
// shut down with Drain then Close.
type Server struct {
	cfg    Config
	shards []*shard

	inflight    atomic.Int64
	globalSheds atomic.Int64
	draining    atomic.Bool

	drainCtx    context.Context
	drainCancel context.CancelFunc

	obsReg    *obs.Registry
	sweepStop chan struct{}
	sweepDone sync.WaitGroup
	closeOnce sync.Once
	start     time.Time
}

// New creates a Server and starts its per-shard expiry sweepers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		obsReg:    obs.NewRegistry(),
		sweepStop: make(chan struct{}),
		start:     cfg.now(),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	for i := range s.shards {
		m := obs.New(fmt.Sprintf("shard%02d", i), obs.Config{})
		s.obsReg.MustRegister(m)
		s.shards[i] = &shard{id: i, entries: map[string]*entry{}, met: m}
	}
	s.sweepDone.Add(1)
	go s.sweeper()
	return s
}

// Close stops the sweepers. It does not drain; call Drain first for a
// graceful shutdown. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.drainCancel() // release any stragglers even if Drain was skipped
		close(s.sweepStop)
	})
	s.sweepDone.Wait()
}

// Drain gracefully shuts the service down: new acquires are shed with
// ErrDraining, every waiter parked in an acquire is aborted via context
// cancellation (the paper's bounded abort, so the reap is prompt), and
// Drain returns once no request is in flight — or ctx's deadline expires
// first, in which case the deadline error is returned with whatever
// in-flight count remains. Held leases are not revoked; their holders are
// expected to fail over and let the leases lapse.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainCancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("lockd: drain deadline with %d request(s) in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// shardOf maps a name onto its stripe with fnv-1a.
func (s *Server) shardOf(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

func checkName(name string) error {
	if name == "" || len(name) > MaxNameLen {
		return ErrBadName
	}
	return nil
}

// clamp returns v bounded into (0, max], substituting def for zero.
func clamp(v, def, max time.Duration) time.Duration {
	if v <= 0 {
		v = def
	}
	if v > max {
		v = max
	}
	return v
}

// admit takes one unit of the gate n when fewer than limit are taken, and
// reports whether it did; the caller gives the unit back with n.Add(-1). A
// shed request never adds, so n — and the lockd_waiting and lockd_inflight
// gauges that export it — never reads above limit.
func admit(n *atomic.Int64, limit int) bool {
	for {
		cur := n.Load()
		if cur >= int64(limit) {
			return false
		}
		if n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Acquire obtains the named lock, blocking until granted or until ctx is
// cancelled, wait elapses, or the server drains. A zero ttl or wait
// selects the configured default; both are clamped to their maxima. On
// success the returned lease is held until released with its token,
// renewed, or reclaimed at expiry.
func (s *Server) Acquire(ctx context.Context, name string, ttl, wait time.Duration) (Lease, error) {
	if err := checkName(name); err != nil {
		return Lease{}, err
	}
	if s.draining.Load() {
		return Lease{}, ErrDraining
	}
	// Global in-flight gate: shed rather than queue without bound.
	if !admit(&s.inflight, s.cfg.MaxInFlight) {
		s.globalSheds.Add(1)
		return Lease{}, ErrOverloaded
	}
	defer s.inflight.Add(-1)

	sh := s.shardOf(name)
	if !admit(&sh.waiting, s.cfg.ShardWaiterBudget) {
		sh.sheds.Add(1)
		return Lease{}, ErrOverloaded
	}
	defer sh.waiting.Add(-1)

	e, err := s.entryFor(sh, name)
	if err != nil {
		sh.sheds.Add(1)
		return Lease{}, err
	}
	defer s.unpin(e)

	ttl = clamp(ttl, s.cfg.TTL, s.cfg.MaxTTL)
	wait = clamp(wait, s.cfg.Wait, s.cfg.MaxWait)

	// The wait context merges three abort sources: the caller's context
	// (client cancel or disconnect), the wait budget, and server drain.
	// All three funnel into abortable.EnterContext, so a parked waiter is
	// unparked and reaped within the bounded abort budget.
	actx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	stop := context.AfterFunc(s.drainCtx, cancel)
	defer stop()

	h, err := e.pool.EnterContext(actx)
	if err != nil {
		switch {
		case s.draining.Load():
			return Lease{}, ErrDraining
		case ctx.Err() != nil:
			return Lease{}, ctx.Err() // client cancelled or disconnected
		default:
			sh.timeouts.Add(1)
			return Lease{}, ErrWaitTimeout
		}
	}

	now := s.cfg.now()
	tok := sh.fence.Add(1)
	e.mu.Lock()
	e.held = true
	e.token = tok
	e.expiry = now.Add(ttl)
	e.handle = h
	e.mu.Unlock()
	sh.held.Add(1)
	sh.acquires.Add(1)
	return Lease{Name: name, Token: tok, TTL: ttl, Expiry: now.Add(ttl)}, nil
}

// Release gives the named lock up. The token must match the current
// lease: a stale token — an earlier holder whose lease expired and was
// reclaimed, or a duplicate release — is rejected with ErrStale. A
// matching token on an already-expired lease reclaims the lock
// immediately but still reports ErrExpired, so a holder that outlived its
// lease learns it may have lost mutual exclusion.
func (s *Server) Release(name string, token uint64) error {
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return err
	}
	defer s.unpin(e)
	e.mu.Lock()
	if !e.held || e.token != token {
		e.mu.Unlock()
		sh.fencingRejects.Add(1)
		return ErrStale
	}
	expired := s.cfg.now().After(e.expiry)
	sh.reclaim(e)
	if expired {
		sh.expiries.Add(1)
		sh.fencingRejects.Add(1)
		return ErrExpired
	}
	sh.releases.Add(1)
	return nil
}

// Renew extends the current lease by ttl from now. The token must match
// and the lease must not have expired.
func (s *Server) Renew(name string, token uint64, ttl time.Duration) (Lease, error) {
	ttl = clamp(ttl, s.cfg.TTL, s.cfg.MaxTTL)
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return Lease{}, err
	}
	defer s.unpin(e)
	now := s.cfg.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.held || e.token != token {
		sh.fencingRejects.Add(1)
		return Lease{}, ErrStale
	}
	if now.After(e.expiry) {
		// Expired but not yet swept: leave the reclaim to the sweeper (or
		// a release); the renew just fails.
		sh.fencingRejects.Add(1)
		return Lease{}, ErrExpired
	}
	e.expiry = now.Add(ttl)
	sh.renews.Add(1)
	return Lease{Name: name, Token: token, TTL: ttl, Expiry: e.expiry}, nil
}

// Info is one name's Inspect snapshot.
type Info struct {
	Name    string
	Held    bool
	Token   uint64        // current lease token, when held
	Remain  time.Duration // lease time remaining, when held
	Waiters int64         // acquires currently in flight on the shard
}

// Inspect reports the named lock's state; ok is false for unknown names.
func (s *Server) Inspect(name string) (Info, bool) {
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return Info{}, false
	}
	defer e.refs.Add(-1)
	e.mu.Lock()
	info := Info{Name: name, Held: e.held, Waiters: sh.waiting.Load()}
	if e.held {
		info.Token = e.token
		info.Remain = e.expiry.Sub(s.cfg.now())
	}
	e.mu.Unlock()
	return info, true
}

// liveEntry pins the existing entry for name (refs incremented; the
// caller must decrement) or reports ErrUnknown/ErrBadName.
func (s *Server) liveEntry(name string) (*entry, *shard, error) {
	if err := checkName(name); err != nil {
		return nil, nil, err
	}
	sh := s.shardOf(name)
	sh.mu.Lock()
	e := sh.entries[name]
	if e == nil {
		sh.mu.Unlock()
		return nil, nil, ErrUnknown
	}
	e.refs.Add(1)
	sh.mu.Unlock()
	return e, sh, nil
}

// entryFor pins the entry for name, creating it if absent. At the
// lock-table cap it evicts the least-recently-used idle entry; with
// nothing evictable the create is shed with ErrTableFull.
func (s *Server) entryFor(sh *shard, name string) (*entry, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[name]; e != nil {
		e.refs.Add(1)
		return e, nil
	}
	if len(sh.entries) >= s.cfg.MaxLocksPerShard && !sh.evictLRU() {
		return nil, ErrTableFull
	}
	lk := abortable.New(abortable.Config{MaxHandles: s.cfg.PoolSize})
	lk.SetObserver(sh.met)
	pool, err := abortable.NewHandlePool(lk, s.cfg.PoolSize)
	if err != nil {
		return nil, err // unreachable with a validated PoolSize
	}
	pool.SetObserver(sh.met)
	e := &entry{name: name, pool: pool}
	e.touch(s.cfg.now())
	e.refs.Add(1)
	sh.entries[name] = e
	return e, nil
}

// evictLRU removes the least-recently-used idle entry (unheld,
// unreferenced), reporting whether an eviction happened. Caller holds
// sh.mu.
func (sh *shard) evictLRU() bool {
	var victim *entry
	for _, e := range sh.entries {
		if e.idle() && (victim == nil || e.lastUse.Load() < victim.lastUse.Load()) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(sh.entries, victim.name)
	sh.retired.Add(1)
	return true
}

// locks returns the number of live named locks in the shard.
func (sh *shard) locks() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.entries)
}

// sweeper drives every shard's expiry reclaim and idle retirement until
// Close.
func (s *Server) sweeper() {
	defer s.sweepDone.Done()
	tick := time.NewTicker(s.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-tick.C:
			now := s.cfg.now()
			for _, sh := range s.shards {
				s.sweepShard(sh, now)
			}
		}
	}
}

// reclaim ends e's lease, which the caller holds e.mu over: it clears the
// lease, unlocks e.mu, and hands the lock to the next queued waiter
// (pool.Release) outside the mutex.
func (sh *shard) reclaim(e *entry) {
	h := e.handle
	e.held = false
	e.handle = nil
	e.mu.Unlock()
	sh.held.Add(-1)
	e.pool.Release(h)
}

// sweepShard reclaims expired leases and retires idle entries in one
// shard. Reclaiming calls pool.Release (which hands the lock to the next
// queued waiter) outside both mutexes.
func (s *Server) sweepShard(sh *shard, now time.Time) {
	sh.mu.Lock()
	live := make([]*entry, 0, len(sh.entries))
	for _, e := range sh.entries {
		live = append(live, e)
	}
	sh.mu.Unlock()

	for _, e := range live {
		e.mu.Lock()
		if e.held && now.After(e.expiry) {
			sh.expiries.Add(1)
			sh.reclaim(e)
			continue
		}
		e.mu.Unlock()
	}

	// Idle retirement: drop entries idle past the idle TTL.
	cutoff := now.Add(-s.cfg.IdleRetire).UnixNano()
	sh.mu.Lock()
	for name, e := range sh.entries {
		if e.lastUse.Load() <= cutoff && e.idle() {
			delete(sh.entries, name)
			sh.retired.Add(1)
		}
	}
	sh.mu.Unlock()
}

// Stats is a point-in-time aggregate snapshot across all shards.
type Stats struct {
	Shards   int
	Locks    int   // live named locks
	Held     int64 // held leases
	Waiting  int64 // in-flight acquires
	InFlight int64 // in-flight requests (global gate usage)
	Draining bool

	Acquires       int64
	Timeouts       int64
	Sheds          int64 // shard-budget + table-full sheds
	GlobalSheds    int64 // global-gate sheds
	Expiries       int64
	FencingRejects int64
	Releases       int64
	Renews         int64
	Retired        int64
}

// Stats aggregates the per-shard counters. Values are individually atomic
// snapshots and may be mutually skewed under load.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:      len(s.shards),
		InFlight:    s.inflight.Load(),
		GlobalSheds: s.globalSheds.Load(),
		Draining:    s.draining.Load(),
	}
	for _, sh := range s.shards {
		st.Locks += sh.locks()
		st.Held += sh.held.Load()
		st.Waiting += sh.waiting.Load()
		st.Acquires += sh.acquires.Load()
		st.Timeouts += sh.timeouts.Load()
		st.Sheds += sh.sheds.Load()
		st.Expiries += sh.expiries.Load()
		st.FencingRejects += sh.fencingRejects.Load()
		st.Releases += sh.releases.Load()
		st.Renews += sh.renews.Load()
		st.Retired += sh.retired.Load()
	}
	return st
}
