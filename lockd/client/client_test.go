package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sublock/lockd/wire"
)

func fastCfg() Config {
	return Config{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

// fakeLockd scripts responses: each call pops the next status/body pair.
type fakeLockd struct {
	calls   atomic.Int64
	handler func(n int64, w http.ResponseWriter, r *http.Request)
}

func (f *fakeLockd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.handler(f.calls.Add(1), w, r)
}

func writeLease(w http.ResponseWriter, token uint64) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wire.LeaseResponse{Name: "n", Token: token, TTLMS: 1000, ExpiresInMS: 1000})
}

func writeCode(w http.ResponseWriter, status int, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wire.ErrorResponse{Code: code, Error: code})
}

// TestRetryOn503ThenSuccess: shed responses are retried and the eventual
// grant is surfaced, with the attempt count matching the script.
func TestRetryOn503ThenSuccess(t *testing.T) {
	f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= 2 {
			writeCode(w, http.StatusServiceUnavailable, "overloaded")
			return
		}
		writeLease(w, 7)
	}}
	ts := httptest.NewServer(f)
	defer ts.Close()

	cl := New(ts.URL, fastCfg())
	ls, err := cl.Acquire(context.Background(), "n", time.Second, time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if ls.Token != 7 {
		t.Fatalf("token = %d, want 7", ls.Token)
	}
	if got := f.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two sheds then a grant)", got)
	}
}

// TestRetryAfterFloorsBackoff: the server's Retry-After hint raises the
// computed delay; observed wall time proves the client actually waited.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	cl := New("localhost:0", fastCfg())
	const hint = 300 * time.Millisecond
	d := cl.backoff(0, hint)
	if d < hint {
		t.Fatalf("backoff = %v, want >= Retry-After hint %v", d, hint)
	}
	// Jitter adds at most Jitter (default 0.5) of the floored delay.
	if max := hint + time.Duration(float64(hint)*cl.cfg.Jitter); d > max {
		t.Fatalf("backoff = %v, want <= %v", d, max)
	}
	// Without a hint the exponential base applies.
	if d := cl.backoff(0, 0); d < cl.cfg.BaseBackoff {
		t.Fatalf("backoff = %v, want >= base %v", d, cl.cfg.BaseBackoff)
	}
	// Growth is capped at MaxBackoff (plus jitter).
	d = cl.backoff(30, 0)
	if max := cl.cfg.MaxBackoff + time.Duration(float64(cl.cfg.MaxBackoff)*cl.cfg.Jitter); d > max {
		t.Fatalf("backoff(30) = %v, want <= capped %v", d, max)
	}
}

// TestRetriesExhaustedOverloaded: a server that never stops shedding
// yields ErrOverloaded after MaxAttempts, and the Retry-After header is
// respected between tries.
func TestRetriesExhaustedOverloaded(t *testing.T) {
	f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0") // parses to a zero hint: fast test
		writeCode(w, http.StatusServiceUnavailable, "overloaded")
	}}
	ts := httptest.NewServer(f)
	defer ts.Close()

	cfg := fastCfg()
	cfg.MaxAttempts = 3
	cl := New(ts.URL, cfg)
	_, err := cl.Acquire(context.Background(), "n", time.Second, time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted acquire = %v, want ErrOverloaded", err)
	}
	if got := f.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts = 3", got)
	}
}

func TestDrainingTerminal(t *testing.T) {
	f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
		writeCode(w, http.StatusServiceUnavailable, "draining")
	}}
	ts := httptest.NewServer(f)
	defer ts.Close()

	cl := New(ts.URL, fastCfg())
	_, err := cl.Acquire(context.Background(), "n", time.Second, time.Second)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("draining acquire = %v, want ErrDraining", err)
	}
}

// TestFencingErrorMapping: machine-readable codes map onto the client's
// sentinels without retrying (one call each).
func TestFencingErrorMapping(t *testing.T) {
	cases := []struct {
		status int
		code   string
		want   error
	}{
		{http.StatusConflict, "stale_token", ErrStale},
		{http.StatusConflict, "expired", ErrExpired},
		{http.StatusNotFound, "unknown_lock", ErrUnknown},
		{http.StatusRequestTimeout, "wait_timeout", ErrWaitTimeout},
	}
	for _, tc := range cases {
		f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
			writeCode(w, tc.status, tc.code)
		}}
		ts := httptest.NewServer(f)
		cl := New(ts.URL, fastCfg())
		err := cl.Release(context.Background(), &Lease{Name: "n", Token: 1})
		if !errors.Is(err, tc.want) {
			t.Errorf("code %q: err = %v, want %v", tc.code, err, tc.want)
		}
		if got := f.calls.Load(); got != 1 {
			t.Errorf("code %q: attempts = %d, want 1 (terminal, no retry)", tc.code, got)
		}
		ts.Close()
	}
}

// TestTransportErrorRetriedAndReported: connection failures are retried;
// when they exhaust attempts the underlying cause is preserved.
func TestTransportErrorRetriedAndReported(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listens: every attempt is a transport error

	cfg := fastCfg()
	cfg.MaxAttempts = 2
	cl := New(ts.URL, cfg)
	_, err := cl.Acquire(context.Background(), "n", time.Second, time.Second)
	if err == nil {
		t.Fatal("acquire against closed server succeeded")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("err = %v, want retries-exhausted wrapper", err)
	}
	if !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want underlying transport cause preserved", err)
	}
}

// TestContextCancelStopsRetry: a cancelled context aborts the backoff
// sleep instead of burning the remaining attempts.
func TestContextCancelStopsRetry(t *testing.T) {
	f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // long hint the cancel must beat
		writeCode(w, http.StatusServiceUnavailable, "overloaded")
	}}
	ts := httptest.NewServer(f)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cl := New(ts.URL, fastCfg())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Acquire(ctx, "n", time.Second, time.Second)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for f.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never landed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not interrupt the backoff sleep")
	}
}

// TestRenewUpdatesLease: a renew rewrites the lease TTL/expiry in place.
func TestRenewUpdatesLease(t *testing.T) {
	f := &fakeLockd{handler: func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.LeaseResponse{Name: "n", Token: 4, TTLMS: 5000, ExpiresInMS: 5000})
	}}
	ts := httptest.NewServer(f)
	defer ts.Close()

	cl := New(ts.URL, fastCfg())
	ls := &Lease{Name: "n", Token: 4, TTL: time.Second, Expiry: time.Now()}
	if err := cl.Renew(context.Background(), ls, 5*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if ls.TTL != 5*time.Second {
		t.Fatalf("TTL = %v, want 5s", ls.TTL)
	}
	if !ls.Expiry.After(time.Now().Add(4 * time.Second)) {
		t.Fatalf("Expiry = %v, want ~5s out", ls.Expiry)
	}
}
