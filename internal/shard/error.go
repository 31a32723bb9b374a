package shard

import (
	"errors"
	"fmt"
	"net/http"

	"fannr/internal/core"
	"fannr/internal/wire"
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

// Row makes an Error a wire.Relayed: whoever writes it keeps its row.
func (e *Error) Row() (status int, code string, retryAfter int, msg string) {
	return e.Status, e.Code, e.RetryAfter, e.Msg
}

// Retryable reports whether the coordinator may retry the call: server
// faults and overloads are retryable, client faults (4xx) are not.
func (e *Error) Retryable() bool { return e.Status >= 500 }

// Classify is err as the transport carries it: a lower layer's *Error
// as it is, anything else with its row of wire.Classify's table — the
// same {status, code} the query would have failed with served directly —
// and, on a 503, wire.RetryAfter as its hint.
func Classify(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	status, code := wire.Classify(err)
	e := &Error{Status: status, Code: code, Msg: err.Error()}
	if status == http.StatusServiceUnavailable {
		e.RetryAfter = wire.RetryAfterSeconds(wire.RetryAfter)
	}
	return e
}

// ErrCodec tags every frame-level decode failure (errors.Is-able). A
// frame the codec refuses is the sender's fault, so it is core.ErrInvalid
// too (400).
var ErrCodec error = codecError{}

type codecError struct{}

func (codecError) Error() string        { return "shard: codec" }
func (codecError) Is(target error) bool { return target == core.ErrInvalid }
