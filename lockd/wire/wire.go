// Package wire is the lockd HTTP/JSON wire format: the request and
// response bodies and the machine-readable error codes. The server
// (lockd) and the Go client (lockd/client) both speak it from here, so
// the two sides cannot drift apart.
//
// Durations travel as integer milliseconds; fencing tokens as uint64. A
// zero ttl_ms/wait_ms selects the server default.
package wire

// AcquireRequest is the POST /v1/acquire body.
type AcquireRequest struct {
	Name   string `json:"name"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse answers a granted acquire or renew.
type LeaseResponse struct {
	Name        string `json:"name"`
	Token       uint64 `json:"token"`
	TTLMS       int64  `json:"ttl_ms"`
	ExpiresInMS int64  `json:"expires_in_ms"`
}

// ReleaseRequest is the POST /v1/release body.
type ReleaseRequest struct {
	Name  string `json:"name"`
	Token uint64 `json:"token"`
}

// RenewRequest is the POST /v1/renew body.
type RenewRequest struct {
	Name  string `json:"name"`
	Token uint64 `json:"token"`
	TTLMS int64  `json:"ttl_ms,omitempty"`
}

// ErrorResponse carries a machine-readable Code (one of the constants
// below) alongside the message.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// InspectResponse answers GET /v1/inspect.
type InspectResponse struct {
	Name     string `json:"name"`
	Held     bool   `json:"held"`
	Token    uint64 `json:"token,omitempty"`
	RemainMS int64  `json:"remain_ms,omitempty"`
	Waiters  int64  `json:"waiters"`
}

// Error codes. The 503 codes (overloaded, table_full, draining) are sheds,
// sent with a Retry-After hint.
const (
	CodeOverloaded  = "overloaded"   // 503: global gate or shard budget full
	CodeTableFull   = "table_full"   // 503: lock table full, nothing evictable
	CodeDraining    = "draining"     // 503: the server is shutting down
	CodeWaitTimeout = "wait_timeout" // 408: the wait budget elapsed
	CodeStaleToken  = "stale_token"  // 409: the token names no current lease
	CodeExpired     = "expired"      // 409: the lease expired first
	CodeUnknownLock = "unknown_lock" // 404: no live lock under the name
	CodeBadRequest  = "bad_request"  // 400: malformed body or invalid name
)
