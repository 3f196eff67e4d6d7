package lockd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sublock/lockd/wire"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/acquire  {name, ttl_ms?, wait_ms?} -> 200 lease | 408 | 503
//	POST /v1/release  {name, token}             -> 200 | 404 | 409 | 503(drain only: no)
//	POST /v1/renew    {name, token, ttl_ms?}    -> 200 lease | 404 | 409
//	GET  /v1/inspect?name=N                     -> 200 | 404
//	GET  /metrics                               -> Prometheus text (?format=json)
//	GET  /healthz                               -> 200 | 503 while draining
//
// Acquire handlers pass the request context straight into the abortable
// lock, so a client that disconnects mid-wait is reaped via bounded
// abort. Releases and renews are allowed during drain — holders must be
// able to let go while the server empties.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire", s.handleAcquire)
	mux.HandleFunc("POST /v1/release", s.handleRelease)
	mux.HandleFunc("POST /v1/renew", s.handleRenew)
	mux.HandleFunc("GET /v1/inspect", s.handleInspect)
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxBody bounds request bodies; lockd requests are tiny.
const maxBody = 1 << 16

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return false
	}
	return true
}

// writeJSON responds under the configured write deadline, so a stalled
// reader cannot pin the handler goroutine past WriteTimeout. The write
// error is surfaced so acquire grants can be rolled back when the waiter
// vanished before the lease reached it.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) error {
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) // best-effort; ErrNotSupported is fine
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusServiceUnavailable {
		secs := int64(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, status, wire.ErrorResponse{Code: code, Error: msg})
}

// writeServiceError maps the service-layer sentinels onto HTTP.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeOverloaded, err.Error())
	case errors.Is(err, ErrTableFull):
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeTableFull, err.Error())
	case errors.Is(err, ErrDraining):
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeDraining, err.Error())
	case errors.Is(err, ErrWaitTimeout):
		s.writeError(w, http.StatusRequestTimeout, wire.CodeWaitTimeout, err.Error())
	case errors.Is(err, ErrStale):
		s.writeError(w, http.StatusConflict, wire.CodeStaleToken, err.Error())
	case errors.Is(err, ErrExpired):
		s.writeError(w, http.StatusConflict, wire.CodeExpired, err.Error())
	case errors.Is(err, ErrUnknown):
		s.writeError(w, http.StatusNotFound, wire.CodeUnknownLock, err.Error())
	case errors.Is(err, ErrBadName):
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
	default:
		// Context errors surface when the client cancelled or vanished;
		// the response is a courtesy to whoever is still listening.
		s.writeError(w, http.StatusRequestTimeout, wire.CodeWaitTimeout, err.Error())
	}
}

func ms(d time.Duration) int64 { return d.Milliseconds() }

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req wire.AcquireRequest
	if !s.decode(w, r, &req) {
		return
	}
	ls, err := s.Acquire(r.Context(), req.Name,
		time.Duration(req.TTLMS)*time.Millisecond,
		time.Duration(req.WaitMS)*time.Millisecond)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	if r.Context().Err() != nil {
		// The grant raced the client's disconnect: nobody will ever learn
		// this token, so roll the lease back now instead of leaving the
		// name ghost-held until TTL expiry.
		s.Release(ls.Name, ls.Token)
		return
	}
	err = s.writeJSON(w, http.StatusOK, wire.LeaseResponse{
		Name:        ls.Name,
		Token:       ls.Token,
		TTLMS:       ms(ls.TTL),
		ExpiresInMS: ms(ls.TTL),
	})
	if err != nil {
		// The lease never reached the client (disconnect or write-deadline
		// blow mid-response): same ghost-holder hazard, same rollback. A
		// kernel-buffered write can still slip through; TTL expiry remains
		// the backstop for that residue.
		s.Release(ls.Name, ls.Token)
	}
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.Release(req.Name, req.Token); err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"released": true})
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req wire.RenewRequest
	if !s.decode(w, r, &req) {
		return
	}
	ls, err := s.Renew(req.Name, req.Token, time.Duration(req.TTLMS)*time.Millisecond)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.LeaseResponse{
		Name:        ls.Name,
		Token:       ls.Token,
		TTLMS:       ms(ls.TTL),
		ExpiresInMS: ms(ls.Expiry.Sub(s.cfg.now())),
	})
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	info, ok := s.Inspect(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, wire.CodeUnknownLock, ErrUnknown.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, wire.InspectResponse{
		Name:     info.Name,
		Held:     info.Held,
		Token:    info.Token,
		RemainMS: ms(info.Remain),
		Waiters:  info.Waiters,
	})
}
