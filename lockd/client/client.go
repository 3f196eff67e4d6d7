// Package client is the Go client for the lockd lock service: acquire /
// renew / release with leases and fencing tokens, retrying shed (503)
// responses with exponential backoff plus jitter and honoring the
// server's Retry-After hint.
//
//	cl := client.New("127.0.0.1:7513")
//	ls, err := cl.Acquire(ctx, "orders/42", 10*time.Second, 2*time.Second)
//	if err != nil { ... }
//	defer cl.Release(context.Background(), ls)
//	// guard downstream writes with ls.Token (largest-token-wins fencing)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sublock/lockd/wire"
)

// Lease is a held lock: present Token on release/renew, and forward it to
// fenced downstream resources (largest token wins).
type Lease struct {
	Name   string
	Token  uint64
	TTL    time.Duration
	Expiry time.Time // local-clock estimate: response time + TTL
}

// Errors mapped back from the server's machine-readable codes.
var (
	// ErrStale: the fencing token no longer names the current lease.
	ErrStale = errors.New("lockd client: stale fencing token")
	// ErrExpired: the lease expired before the release/renew landed.
	ErrExpired = errors.New("lockd client: lease expired")
	// ErrUnknown: the server has no live lock under that name.
	ErrUnknown = errors.New("lockd client: unknown lock")
	// ErrWaitTimeout: the acquire wait budget elapsed without a grant.
	ErrWaitTimeout = errors.New("lockd client: wait budget elapsed")
	// ErrOverloaded: the server shed the request and retries ran out.
	ErrOverloaded = errors.New("lockd client: server overloaded")
	// ErrDraining: the server is shutting down and retries ran out.
	ErrDraining = errors.New("lockd client: server draining")
)

// Config tunes a Client. The zero value selects the defaults.
type Config struct {
	// HTTPClient overrides the transport (default: http.Client with a
	// 60s overall timeout as a backstop; per-call contexts bound waits).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call across sheds and transport
	// errors (default 4; 1 disables retry).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 50ms); the
	// server's Retry-After hint raises any computed delay to at least the
	// hinted value. MaxBackoff caps the growth (default 2s).
	BaseBackoff, MaxBackoff time.Duration
	// Jitter is the uniform random fraction added to each delay
	// (default 0.5: delay .. 1.5*delay).
	Jitter float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 60 * time.Second}
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	return c
}

// Client talks to one lockd server. Safe for concurrent use.
type Client struct {
	base string
	cfg  Config

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates a client for addr ("host:port" or a full http:// URL).
func New(addr string, cfg ...Config) *Client {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		cfg:  c.withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// jittered returns d plus a uniform random fraction of it.
func (c *Client) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return d + time.Duration(float64(d)*c.cfg.Jitter*f)
}

// backoff computes the delay before retry attempt (0-based), floored at
// the server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	return c.jittered(d)
}

// shedError is a retryable 503 with the server's Retry-After hint.
type shedError struct {
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return fmt.Sprintf("lockd client: %s: %s", e.code, e.msg) }

// terminal converts an exhausted shedError to its caller-facing sentinel.
func (e *shedError) terminal() error {
	if e.code == wire.CodeDraining {
		return fmt.Errorf("%w: %s", ErrDraining, e.msg)
	}
	return fmt.Errorf("%w: %s", ErrOverloaded, e.msg)
}

// do runs one POST, decoding a 200 into out (when non-nil) and everything
// else into a typed error. A *shedError return is retryable.
func (c *Client) do(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK {
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var apiErr wire.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&apiErr) // best-effort; code may stay empty
	if resp.StatusCode == http.StatusServiceUnavailable {
		var ra time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			ra = time.Duration(secs) * time.Second
		}
		return &shedError{code: apiErr.Code, msg: apiErr.Error, retryAfter: ra}
	}
	switch apiErr.Code {
	case wire.CodeStaleToken:
		return ErrStale
	case wire.CodeExpired:
		return ErrExpired
	case wire.CodeUnknownLock:
		return ErrUnknown
	case wire.CodeWaitTimeout:
		return ErrWaitTimeout
	default:
		return fmt.Errorf("lockd client: %s: %s (%s)", resp.Status, apiErr.Error, apiErr.Code)
	}
}

// transportError marks a connection-level failure as retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retry runs op under the retry policy: sheds and transport errors back
// off (jittered exponential, floored at Retry-After) and try again until
// MaxAttempts or ctx cancellation; anything else returns immediately.
func (c *Client) retry(ctx context.Context, op func() error) error {
	var lastShed *shedError
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		lastErr = err
		var shed *shedError
		var trans *transportError
		var delay time.Duration
		switch {
		case errors.As(err, &shed):
			lastShed = shed
			delay = c.backoff(attempt, shed.retryAfter)
		case errors.As(err, &trans):
			if ctx.Err() != nil {
				return ctx.Err()
			}
			delay = c.backoff(attempt, 0)
		default:
			return err
		}
		if attempt == c.cfg.MaxAttempts-1 {
			break
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if lastShed != nil {
		return lastShed.terminal()
	}
	return fmt.Errorf("lockd client: retries exhausted: %w", lastErr)
}

// Acquire obtains name, waiting up to wait per attempt (zero selects the
// server default) and holding for ttl. Shed responses are retried with
// backoff; a grant surfaces the lease and its fencing token.
func (c *Client) Acquire(ctx context.Context, name string, ttl, wait time.Duration) (*Lease, error) {
	var lease *Lease
	err := c.retry(ctx, func() error {
		var resp wire.LeaseResponse
		if err := c.do(ctx, "/v1/acquire", wire.AcquireRequest{
			Name:   name,
			TTLMS:  ttl.Milliseconds(),
			WaitMS: wait.Milliseconds(),
		}, &resp); err != nil {
			return err
		}
		d := time.Duration(resp.TTLMS) * time.Millisecond
		lease = &Lease{Name: resp.Name, Token: resp.Token, TTL: d, Expiry: time.Now().Add(d)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return lease, nil
}

// Release gives the lease up. ErrStale / ErrExpired / ErrUnknown mean the
// server already considers this holder gone — mutual exclusion may have
// passed to someone else, and the caller must stop relying on it.
func (c *Client) Release(ctx context.Context, ls *Lease) error {
	return c.retry(ctx, func() error {
		return c.do(ctx, "/v1/release", wire.ReleaseRequest{Name: ls.Name, Token: ls.Token}, nil)
	})
}

// Renew extends the lease by ttl (zero selects the server default),
// updating ls in place on success.
func (c *Client) Renew(ctx context.Context, ls *Lease, ttl time.Duration) error {
	return c.retry(ctx, func() error {
		var resp wire.LeaseResponse
		if err := c.do(ctx, "/v1/renew", wire.RenewRequest{
			Name:  ls.Name,
			Token: ls.Token,
			TTLMS: ttl.Milliseconds(),
		}, &resp); err != nil {
			return err
		}
		ls.TTL = time.Duration(resp.TTLMS) * time.Millisecond
		ls.Expiry = time.Now().Add(time.Duration(resp.ExpiresInMS) * time.Millisecond)
		return nil
	})
}
