// Package envelope exercises the error-envelope analyzer: raw error
// responses, minted error codes (as call arguments, conversions, or typed
// error fields), and response-less return paths are flagged; enveloped
// errors with vocabulary codes stay silent.
package envelope

import (
	"net/http"

	"envelopecodes"
)

// handleGood responds through the envelope with a declared code: silent.
func handleGood(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > 1024 {
		envelopecodes.WriteError(w, http.StatusBadRequest, envelopecodes.ErrBad, "body too large")
		return
	}
	w.Write([]byte("ok\n"))
}

// handleRaw bypasses the envelope twice: http.Error and a bare error status.
func handleRaw(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > 1024 {
		http.Error(w, "too big", http.StatusBadRequest) // want `http.Error bypasses the /v1 error envelope`
		return
	}
	w.WriteHeader(http.StatusBadGateway) // want `raw WriteHeader\(502\) bypasses the /v1 error envelope`
}

// handleMint invents vocabulary the clients never agreed to.
func handleMint(w http.ResponseWriter, r *http.Request) {
	envelopecodes.WriteError(w, http.StatusInternalServerError, "boom", "exploded") // want `error code "boom" is not a declared constant of the closed /v1 vocabulary`
	code := envelopecodes.ErrorCode("oops")                                         // want `conversion to envelopecodes.ErrorCode mints an error code outside its declaring package`
	envelopecodes.WriteError(w, http.StatusInternalServerError, code, "threaded-after-mint")
}

// mintLiteral builds typed errors the way an executor does: a literal
// string in the Code field mints vocabulary; a declared constant or a
// threaded ErrorCode value stays silent.
func mintLiteral(code envelopecodes.ErrorCode) []error {
	return []error{
		&envelopecodes.Error{Status: http.StatusNotFound, Code: "made_up_code", Msg: "minted"}, // want `error code "made_up_code" is not a declared constant of the closed /v1 vocabulary`
		&envelopecodes.Error{Status: http.StatusBadRequest, Code: envelopecodes.ErrBad, Msg: "declared"},
		&envelopecodes.Error{Status: http.StatusBadGateway, Code: code, Msg: "threaded"},
	}
}

// handleForgot has a path that returns without ever touching the writer.
func handleForgot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		return // want `handler returns without writing a response on this path`
	}
	w.Write([]byte("done\n"))
}

// relay threads an existing ErrorCode value: silent.
func relay(w http.ResponseWriter, status int, code envelopecodes.ErrorCode) {
	envelopecodes.WriteError(w, status, code, "relayed")
}

// classify returns vocabulary constants; no writer in sight, so the
// return-path rule does not apply.
func classify(n int) envelopecodes.ErrorCode {
	if n >= 500 {
		return envelopecodes.ErrInternal
	}
	return envelopecodes.ErrBad
}
