package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"fannr/internal/core"
	"fannr/internal/lifecycle"
)

// Error is the typed fault a transport hands the coordinator: the HTTP
// status and stable taxonomy code a shard (or the transport itself)
// produced, plus the Retry-After hint when the shard shed load. Keeping
// the triple intact end-to-end is what lets the coordinator re-emit a
// shard's 503 as a coordinator 503 with the same code and Retry-After —
// a shard overload surfacing as a coordinator "internal" 500 would tell
// clients to stop retrying exactly when retrying is right.
type Error struct {
	Status     int    // HTTP status
	Code       string // stable taxonomy code ("overloaded", "timeout", ...)
	RetryAfter int    // seconds; > 0 only on shed responses
	Msg        string
}

func (e *Error) Error() string {
	return fmt.Sprintf("shard: %s (%d %s)", e.Msg, e.Status, e.Code)
}

// Retryable reports whether the coordinator may retry the call: server
// faults and overloads are retryable, client faults (4xx) are not.
func (e *Error) Retryable() bool { return e.Status >= 500 }

// Classify maps any error into the serving taxonomy, mirroring the HTTP
// server's errStatus so a query answered through the coordinator fails
// with the same {status, code} it would have failed with served
// directly. retryAfter is attached to overload-class faults.
func Classify(err error, retryAfter int) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se // already classified by a lower layer
	}
	status, code := http.StatusInternalServerError, "internal"
	var tooBig *http.MaxBytesError
	var ifault *lifecycle.IndexFault
	switch {
	case errors.As(err, &tooBig):
		status, code = http.StatusRequestEntityTooLarge, "too_large"
	case errors.As(err, &ifault):
		status, code = http.StatusServiceUnavailable, "index_fault"
	case errors.Is(err, lifecycle.ErrUnavailable):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrInvalid), errors.Is(err, ErrCodec):
		status, code = http.StatusBadRequest, "invalid"
	case errors.Is(err, core.ErrNoResult):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, core.ErrSaturated):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		status, code = http.StatusGatewayTimeout, "timeout"
	}
	e := &Error{Status: status, Code: code, Msg: err.Error()}
	if status == http.StatusServiceUnavailable {
		if retryAfter < 1 {
			retryAfter = 1
		}
		e.RetryAfter = retryAfter
	}
	return e
}
