package abortable

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sublock/abortable/obs"
)

// HandlePool shares a fixed set of lock handles among arbitrarily many
// goroutines. A Handle is single-goroutine state, and a Lock admits at most
// MaxHandles of them; when more (or anonymous, short-lived) goroutines need
// the lock, they borrow a handle for the duration of one passage:
//
//	pool, _ := abortable.NewHandlePool(lk, 8)
//	h, err := pool.EnterContext(ctx)
//	if err != nil { return err }
//	defer pool.Release(h)
//	// critical section
//
// Borrowing blocks while all handles are in flight, which also caps the
// number of goroutines simultaneously queued at the lock.
type HandlePool struct {
	free chan *Handle
	obsm atomic.Pointer[obs.Metrics]
}

// NewHandlePool registers n fresh handles on lk and pools them.
func NewHandlePool(lk *Lock, n int) (*HandlePool, error) {
	if n < 1 {
		return nil, fmt.Errorf("abortable: pool size %d must be positive", n)
	}
	p := &HandlePool{free: make(chan *Handle, n)}
	for i := 0; i < n; i++ {
		h, err := lk.NewHandle()
		if err != nil {
			return nil, fmt.Errorf("abortable: pool handle %d: %w", i, err)
		}
		p.free <- h
	}
	return p, nil
}

// SetObserver attaches an obs.Metrics collector counting borrows and
// borrow waits and recording borrow latency (nil detaches). This observes
// the pool only; attach the same collector to the underlying Lock with
// Lock.SetObserver to also record passages.
func (p *HandlePool) SetObserver(m *obs.Metrics) { p.obsm.Store(m) }

// borrow receives a free handle, blocking while none is available until
// ctx is done, when it returns nil. When observing it counts a borrow
// wait as the borrow blocks, so a wait that ctx cancels counts too, and
// records each completed borrow's latency. Only a blocked borrow calls
// ctx.Done: a cancelable context allocates its channel on the first call,
// and an uncontended borrow (lockd's common case) must not pay for it.
func (p *HandlePool) borrow(ctx context.Context) *Handle {
	m := p.obsm.Load()
	select {
	case h := <-p.free:
		if m != nil {
			m.RecordBorrow(0)
		}
		return h
	default:
	}
	var t0 time.Time
	if m != nil {
		m.IncBorrowWait()
		t0 = time.Now()
	}
	select {
	case h := <-p.free:
		if m != nil {
			m.RecordBorrow(time.Since(t0))
		}
		return h
	case <-ctx.Done():
		return nil
	}
}

// Enter borrows a handle and acquires the lock, blocking for both. The
// returned handle must be passed to Release after the critical section.
func (p *HandlePool) Enter() *Handle {
	h := p.borrow(context.Background())
	for !h.Enter() {
		// The pooled handle carries no pending abort (Release clears any
		// stray signal), so a false return can only follow an explicit
		// Abort by the borrower's collaborators — retry on their behalf.
	}
	return h
}

// EnterContext borrows a handle and acquires the lock, giving up when ctx
// is cancelled. On success the handle must be passed to Release.
func (p *HandlePool) EnterContext(ctx context.Context) (*Handle, error) {
	h := p.borrow(ctx)
	if h == nil {
		return nil, ctx.Err()
	}
	if err := h.EnterContext(ctx); err != nil {
		p.free <- h
		return nil, err
	}
	return h, nil
}

// TryEnter borrows a handle and try-locks. It returns nil if no handle was
// immediately available or the lock was not immediately grantable.
func (p *HandlePool) TryEnter() *Handle {
	select {
	case h := <-p.free:
		if m := p.obsm.Load(); m != nil {
			m.RecordBorrow(0)
		}
		if h.TryEnter() {
			return h
		}
		p.free <- h
		return nil
	default:
		return nil
	}
}

// Release exits the critical section and returns the handle to the pool.
func (p *HandlePool) Release(h *Handle) {
	h.Exit()
	h.abortFlag.Store(false) // drop any signal aimed at the previous borrower
	p.free <- h
}
