// Package envelopecodes is the fixture stand-in for hpe/internal/server's
// error vocabulary: it declares the closed ErrorCode set, the typed error
// that carries a code, and the single envelope writer the envelope analyzer
// anchors on.
package envelopecodes

import "net/http"

// ErrorCode is the closed error vocabulary of the fixture /v1 surface.
type ErrorCode string

const (
	ErrBad      ErrorCode = "bad_spec"
	ErrInternal ErrorCode = "internal"
)

// Error is the fixture typed error an executor returns; handlers render it
// through WriteError.
type Error struct {
	Status int
	Code   ErrorCode
	Msg    string
}

func (e *Error) Error() string { return string(e.Code) + ": " + e.Msg }

// WriteError is the fixture envelope writer.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write([]byte(`{"error":{"code":"` + string(code) + `","message":"` + msg + `"}}`))
}
