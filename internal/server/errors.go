package server

import (
	"encoding/json"
	"net/http"
)

// The /v1 error envelope: every non-2xx JSON response from the hped backend
// and the cluster coordinator carries one typed envelope,
//
//	{"error":{"code":"queue_full","message":"…","run_id":"run-v2-…"}}
//
// with a machine-readable code from the closed vocabulary below — shared
// verbatim by backend and coordinator so clients (and the coordinator acting
// as a client) branch on Code, never on message prose. RunID is present when
// the request resolved to a content address before failing.

// ErrorCode is the machine-readable error vocabulary of the /v1 surface.
type ErrorCode string

const (
	// ErrBadSpec: the request body failed decoding, canonicalization, or
	// validation (HTTP 400).
	ErrBadSpec ErrorCode = "bad_spec"
	// ErrQueueFull: the bounded admission queue was at capacity; retry after
	// the Retry-After hint (HTTP 429).
	ErrQueueFull ErrorCode = "queue_full"
	// ErrDraining: the server is shutting down and refuses new work
	// (HTTP 503).
	ErrDraining ErrorCode = "draining"
	// ErrNotFound: no cached or in-flight computation under that ID
	// (HTTP 404).
	ErrNotFound ErrorCode = "not_found"
	// ErrBackendUnavailable: the coordinator exhausted every live backend
	// for a shard (HTTP 503). Backends never emit it.
	ErrBackendUnavailable ErrorCode = "backend_unavailable"
	// ErrCancelled: the computation was cancelled before completing
	// (HTTP 503).
	ErrCancelled ErrorCode = "cancelled"
	// ErrClientGone: the client disconnected before the response was ready;
	// nobody reads the body, but the metrics stay honest (HTTP 499).
	ErrClientGone ErrorCode = "client_gone"
	// ErrInternal: the computation failed for a reason that is the server's
	// fault (HTTP 500).
	ErrInternal ErrorCode = "internal"
)

// Error is a failure an Executor reports with its own status and envelope
// — 429 queue_full from the admission queue, 503 backend_unavailable from
// ring dispatch, a backend's 4xx relayed verbatim — so the handler set maps
// every role's failures in one place. RunID is emitted as given.
type Error struct {
	Status int
	Code   ErrorCode
	Msg    string
	RunID  string
}

func (e *Error) Error() string { return string(e.Code) + ": " + e.Msg }

// ErrorBody is the envelope's payload.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	RunID   string    `json:"run_id,omitempty"`
}

// ErrorEnvelope is the wire form of every /v1 error response.
type ErrorEnvelope struct {
	Err ErrorBody `json:"error"`
}

// EncodeError renders the envelope body (newline-terminated, like every
// other /v1 body).
func EncodeError(code ErrorCode, msg, runID string) []byte {
	body, _ := json.Marshal(ErrorEnvelope{Err: ErrorBody{Code: code, Message: msg, RunID: runID}})
	return append(body, '\n')
}

// WriteError writes one enveloped error response. It is the single error
// path of the /v1 surface.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, msg, runID string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(EncodeError(code, msg, runID))
}

// DecodeError parses an envelope body. ok is false when the body is not an
// envelope (e.g. a non-hped proxy answered) — callers should then fall back
// to the raw body and status code.
func DecodeError(body []byte) (ErrorBody, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Err.Code == "" {
		return ErrorBody{}, false
	}
	return env.Err, true
}
