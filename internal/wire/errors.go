package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/lifecycle"
)

// ErrorResponse is the body of every non-2xx answer on all three tiers.
// Code is the machine-readable row of Classify's table.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Relayed is an error that already carries its row: a fault a shard host
// classified, as the coordinator's transport hands it on. Classify and
// WriteError keep its status, code, Retry-After seconds and message.
type Relayed interface {
	error
	Row() (status int, code string, retryAfter int, msg string)
}

// Classify is the serving taxonomy, one table for all three tiers:
//
//	413 too_large    the body is over the tier's cap
//	503 index_fault  the request hit a rotted page of a mapped index
//	503 overloaded   shed: a full pool queue, an open breaker with no
//	                 fallback, an index mid-quarantine
//	400 invalid      malformed or semantically invalid request
//	404 not_found    no data point reaches ⌈φ|Q|⌉ query points
//	504 timeout      the deadline or the client ran out first
//	500 internal     everything else, engine panics included
func Classify(err error) (status int, code string) {
	var rel Relayed
	var tooBig *http.MaxBytesError
	var ifault *lifecycle.IndexFault
	switch {
	case errors.As(err, &rel):
		status, code, _, _ = rel.Row()
		return status, code
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.As(err, &ifault):
		return http.StatusServiceUnavailable, "index_fault"
	case errors.Is(err, lifecycle.ErrUnavailable), errors.Is(err, core.ErrSaturated):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrInvalid):
		return http.StatusBadRequest, "invalid"
	case errors.Is(err, core.ErrNoResult):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	}
	return http.StatusInternalServerError, "internal"
}

// RetryAfter is the hint every tier attaches to a shed (a 503 of its own
// making): long enough for a queue to drain, short enough that a client
// backing off does not idle.
const RetryAfter = time.Second

// RetryAfterSeconds is the Retry-After value of a hint: whole seconds, at
// least one.
func RetryAfterSeconds(d time.Duration) int {
	return max(int(d.Round(time.Second)/time.Second), 1)
}

// WriteError answers err with its row of the table. Every 503 carries a
// Retry-After header: the relayed fault's own hint when it has one, else
// RetryAfter.
func WriteError(w http.ResponseWriter, err error) {
	status, code := Classify(err)
	msg, secs := err.Error(), 0
	var rel Relayed
	if errors.As(err, &rel) {
		_, _, secs, msg = rel.Row()
	}
	if status == http.StatusServiceUnavailable {
		if secs < 1 {
			secs = RetryAfterSeconds(RetryAfter)
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// WriteJSON writes v as the JSON body of a status answer.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Recover answers a handler's panic with 500 "internal" instead of
// tearing the connection down. http.ErrAbortHandler, net/http's way of
// dropping a connection on purpose, is re-raised.
func Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			WriteError(w, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// BodyError classifies a failure to read or decode a request body: an
// oversized body keeps its *http.MaxBytesError (413), anything else is a
// malformed request (400).
func BodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("decoding request: %w", err)
	}
	return fmt.Errorf("%w: decoding request: %s", core.ErrInvalid, err)
}
