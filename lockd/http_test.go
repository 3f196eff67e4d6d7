package lockd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sublock/internal/promtext"
	"sublock/lockd/client"
	"sublock/lockd/wire"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return v
}

func TestHTTPAcquireReleaseViaClient(t *testing.T) {
	s, ts := newHTTPServer(t, fastCfg())
	cl := client.New(ts.URL)
	ctx := context.Background()

	ls, err := cl.Acquire(ctx, "web", 2*time.Second, time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if ls.Token == 0 || ls.Name != "web" {
		t.Fatalf("lease = %+v, want nonzero token for 'web'", ls)
	}
	if err := cl.Renew(ctx, ls, 2*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := cl.Release(ctx, ls); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := cl.Release(ctx, ls); !errors.Is(err, client.ErrStale) {
		t.Fatalf("double release = %v, want client.ErrStale", err)
	}
	if st := s.Stats(); st.Acquires != 1 || st.Releases != 1 || st.Renews != 1 {
		t.Fatalf("stats = %+v, want one acquire/renew/release", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newHTTPServer(t, fastCfg())

	// Unknown name on release -> 404 unknown_lock.
	resp := postJSON(t, ts.URL+"/v1/release", wire.ReleaseRequest{Name: "ghost", Token: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown release status = %d, want 404", resp.StatusCode)
	}
	if e := decodeBody[wire.ErrorResponse](t, resp); e.Code != "unknown_lock" {
		t.Fatalf("code = %q, want unknown_lock", e.Code)
	}

	// Bad body -> 400 bad_request.
	resp, err := http.Post(ts.URL+"/v1/acquire", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Empty name -> 400 bad_request.
	resp = postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name status = %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[wire.ErrorResponse](t, resp); e.Code != "bad_request" {
		t.Fatalf("code = %q, want bad_request", e.Code)
	}

	// Held elsewhere with a tiny wait -> 408 wait_timeout.
	resp = postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "busy", TTLMS: 60_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder status = %d, want 200", resp.StatusCode)
	}
	holder := decodeBody[wire.LeaseResponse](t, resp)
	resp = postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "busy", WaitMS: 50})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("timeout status = %d, want 408", resp.StatusCode)
	}
	if e := decodeBody[wire.ErrorResponse](t, resp); e.Code != "wait_timeout" {
		t.Fatalf("code = %q, want wait_timeout", e.Code)
	}

	// Stale token -> 409 stale_token.
	resp = postJSON(t, ts.URL+"/v1/release", wire.ReleaseRequest{Name: "busy", Token: holder.Token + 99})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale status = %d, want 409", resp.StatusCode)
	}
	if e := decodeBody[wire.ErrorResponse](t, resp); e.Code != "stale_token" {
		t.Fatalf("code = %q, want stale_token", e.Code)
	}
}

// TestHTTPShedRetryAfter: a saturated shard answers 503 with a parseable
// Retry-After hint and the machine-readable "overloaded" code.
func TestHTTPShedRetryAfter(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 1
	cfg.ShardWaiterBudget = 1
	cfg.RetryAfter = 3 * time.Second
	s, ts := newHTTPServer(t, cfg)

	resp := postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "hot", TTLMS: 60_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Park one waiter to fill the budget, then overflow it.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		body, _ := json.Marshal(wire.AcquireRequest{Name: "hot", WaitMS: 30_000})
		req, _ := http.NewRequestWithContext(wctx, http.MethodPost, ts.URL+"/v1/acquire", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	resp = postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "hot", WaitMS: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if secs != 3 {
		t.Fatalf("Retry-After = %d, want the configured 3", secs)
	}
	if e := decodeBody[wire.ErrorResponse](t, resp); e.Code != "overloaded" {
		t.Fatalf("code = %q, want overloaded", e.Code)
	}
	wcancel()
	<-waiterDone
}

// TestHTTPClientDisconnectReaped: a waiter whose HTTP request is cancelled
// mid-wait is reaped server-side — the request context feeds the abortable
// lock directly.
func TestHTTPClientDisconnectReaped(t *testing.T) {
	s, ts := newHTTPServer(t, fastCfg())

	resp := postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "gone", TTLMS: 60_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(wire.AcquireRequest{Name: "gone", WaitMS: 30_000})
		req, _ := http.NewRequestWithContext(wctx, http.MethodPost, ts.URL+"/v1/acquire", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	wcancel() // the client vanishes
	<-done
	deadline = time.Now().Add(2 * time.Second)
	for s.Stats().Waiting != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnected waiter not reaped; stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPInspectAndHealthz(t *testing.T) {
	s, ts := newHTTPServer(t, fastCfg())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "seen", TTLMS: 60_000})
	lease := decodeBody[wire.LeaseResponse](t, resp)
	resp, err = http.Get(ts.URL + "/v1/inspect?name=seen")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[wire.InspectResponse](t, resp)
	if !info.Held || info.Token != lease.Token || info.RemainMS <= 0 {
		t.Fatalf("inspect = %+v, want held with token %d and remaining TTL", info, lease.Token)
	}
	resp, err = http.Get(ts.URL + "/v1/inspect?name=ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("inspect ghost = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Drain flips healthz to 503 so load balancers stop routing here.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestMetricsEndpoint: the exposition includes the lockd families and the
// per-shard abortable/obs histograms, and passes the promtext linter.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newHTTPServer(t, fastCfg())

	resp := postJSON(t, ts.URL+"/v1/acquire", wire.AcquireRequest{Name: "metered", TTLMS: 60_000})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, family := range []string{
		"lockd_held", "lockd_waiting", "lockd_locks",
		"lockd_acquires_total", "lockd_shed_total", "lockd_lease_expiries_total",
		"lockd_fencing_rejections_total", "lockd_global_shed_total", "lockd_draining",
		"abortable_acquire_ns",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics output missing family %q", family)
		}
	}
	// Family headers print even with no samples: the acquire's handle
	// borrow must show up as a sample on its shard's collector.
	if !regexp.MustCompile(`(?m)^abortable_pool_borrows_total\{lock="shard\d+"\} [1-9]`).MatchString(text) {
		t.Errorf("no shard counts a pool borrow after one acquire:\n%s", text)
	}
	if errs := promtext.Lint(bytes.NewReader(raw)); len(errs) > 0 {
		t.Fatalf("promtext lint: %v", errs)
	}
}

// cancelSeenLate is a request context whose Err reports cancellation while
// its Done never fires: the lock never sees the cancel, so the grant goes
// through, and only handleAcquire's post-grant Err check can notice the
// client is gone.
type cancelSeenLate struct{ context.Context }

func (cancelSeenLate) Err() error { return context.Canceled }

// failingWriter is a ResponseWriter whose body writes fail, as when the
// peer vanished before the lease reached it.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("peer gone") }

// TestAcquireOrphanedGrantRollsBack covers both rollbacks of docs/LOCKD.md's
// orphaned-grant race: a grant whose request context is cancelled by the
// time the lock is won, and a grant whose response write fails, must each
// be released at once rather than ghost-held until the 60 s TTL.
func TestAcquireOrphanedGrantRollsBack(t *testing.T) {
	cases := []struct {
		name  string
		serve func(h http.Handler, r *http.Request)
	}{
		{"context cancelled after the grant", func(h http.Handler, r *http.Request) {
			h.ServeHTTP(httptest.NewRecorder(), r.WithContext(cancelSeenLate{context.Background()}))
		}},
		{"response write fails", func(h http.Handler, r *http.Request) {
			h.ServeHTTP(failingWriter{httptest.NewRecorder()}, r)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, fastCfg())
			ctx := context.Background()
			before, err := s.Acquire(ctx, "orphan", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(before.Name, before.Token); err != nil {
				t.Fatal(err)
			}

			body, _ := json.Marshal(wire.AcquireRequest{Name: "orphan", TTLMS: 60_000})
			c.serve(s.Handler(), httptest.NewRequest(http.MethodPost, "/v1/acquire", bytes.NewReader(body)))

			if st := s.Stats(); st.Acquires != 2 || st.Held != 0 {
				t.Fatalf("stats after the orphaned grant = %+v, want 2 acquires and 0 held", st)
			}
			if info, ok := s.Inspect("orphan"); !ok || info.Held {
				t.Fatalf("inspect = %+v, %v: want the name known and unheld", info, ok)
			}
			// A ghost-held name would make this wait out its 1 s budget
			// and fail with ErrWaitTimeout.
			next, err := s.Acquire(ctx, "orphan", 0, time.Second)
			if err != nil {
				t.Fatalf("acquire after rollback: %v", err)
			}
			if next.Token <= before.Token+1 {
				t.Fatalf("token after rollback = %d, want > the orphaned grant's %d", next.Token, before.Token+1)
			}
		})
	}
}
