package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fannr/internal/wire"
)

// Transport carries one shard RPC. The two implementations — in-process
// and HTTP — both run every call through the framed codec, so tests
// using the in-process transport exercise byte-for-byte the wire path
// the HTTP deployment ships. Failed calls return *Error so the
// coordinator can relay the shard's {status, code, Retry-After} triple.
type Transport interface {
	Call(ctx context.Context, req *Request) (*Response, error)
	// Target names the endpoint for logs, metrics and /readyz.
	Target() string
}

// InProc serves RPCs against a host in the same process. Requests and
// responses still round-trip through the frame codec: the transport is
// hermetic, not a shortcut.
type InProc struct {
	Host *Host
}

func (t InProc) Target() string { return "inproc:" + strconv.Itoa(t.Host.ID) }

func (t InProc) Call(ctx context.Context, req *Request) (*Response, error) {
	frame, err := EncodeRequest(req)
	if err != nil {
		return nil, Classify(err)
	}
	decoded, err := DecodeRequest(frame)
	if err != nil {
		return nil, Classify(err)
	}
	resp, err := t.Host.Execute(ctx, decoded)
	if err != nil {
		return nil, err // classified by Execute
	}
	out, err := EncodeResponse(resp)
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "internal", Msg: err.Error()}
	}
	return DecodeResponse(out)
}

// HTTPTransport calls a shard host over its JSON-over-HTTP RPC.
type HTTPTransport struct {
	// URL is the host's base URL (e.g. "http://10.0.0.3:7101").
	URL string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

func (t *HTTPTransport) Target() string { return t.URL }

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	frame, err := EncodeRequest(req)
	if err != nil {
		return nil, Classify(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.URL+"/shard/fann", bytes.NewReader(frame))
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "internal", Msg: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hresp, err := t.client().Do(hreq)
	if err != nil {
		// Connection refused, reset, context expiry: the shard is
		// unreachable — retryable overload-class fault.
		if ctx.Err() != nil {
			return nil, &Error{Status: http.StatusGatewayTimeout, Code: "timeout", Msg: err.Error()}
		}
		return nil, &Error{Status: http.StatusServiceUnavailable, Code: "overloaded", RetryAfter: wire.RetryAfterSeconds(wire.RetryAfter), Msg: err.Error()}
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hresp.Body, maxFramePayload+frameHeader+frameTrailer+1))
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "internal", Msg: fmt.Sprintf("reading shard response: %v", err)}
	}
	if hresp.StatusCode != http.StatusOK {
		se := &Error{Status: hresp.StatusCode, Code: "internal", Msg: fmt.Sprintf("shard %s: status %d", t.URL, hresp.StatusCode)}
		var e wire.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Code != "" {
			se.Code, se.Msg = e.Code, e.Error
		}
		if ra := hresp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				se.RetryAfter = secs
			}
		}
		return nil, se
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		// A corrupt response frame is the shard's fault, not the
		// client's: internal (retryable), not "invalid".
		return nil, &Error{Status: http.StatusInternalServerError, Code: "internal", Msg: err.Error()}
	}
	return resp, nil
}
