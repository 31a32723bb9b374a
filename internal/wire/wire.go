// Package wire is the /fann request as every serving tier reads it: one
// struct and one decoder, shared by the single-process server, the shard
// coordinator and the shard hosts' frame codec; one normalise step that
// makes it a validated query (call.go); and one error table with the HTTP
// surface that writes it (errors.go).
//
// The decoder is two paths over the same bytes. A hand-written scanner
// accepts exactly the shape clients send — one flat object of the seven
// lower-case keys, plain integer arrays, a JSON number for phi,
// escape-free ASCII strings — and builds the request without reflection.
// Anything else (escapes, other key spellings, unknown or repeated keys,
// null, fractions in an id, syntax errors) is handed, untouched, to
// encoding/json, which is therefore both the only path for those inputs
// and the definition of what the scanner must produce: the wire contract
// and every error text are encoding/json's. FuzzDecodeFANN holds the two
// to each other.
package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"fannr/internal/graph"
)

// FANNRequest is the /fann request body, and the shard RPC's: a shard
// receives the same query restricted to the P-objects it owns.
type FANNRequest struct {
	P      []graph.NodeID `json:"p"`
	Q      []graph.NodeID `json:"q"`
	Phi    float64        `json:"phi"`
	Agg    string         `json:"agg"`    // "max" | "sum"
	Algo   string         `json:"algo"`   // "gd" | "rlist" | "ier" | "exactmax" | "apxsum"
	Engine string         `json:"engine"` // one of /meta's engines
	K      int            `json:"k"`      // answers to return (default 1)
}

// DecodeBody decodes an HTTP request body the way json.Decoder.Decode
// does: the first JSON value is the request and whatever follows it is
// not looked at. *req is overwritten whole; the error, if any, is
// encoding/json's.
func DecodeBody(data []byte, req *FANNRequest) error {
	*req = FANNRequest{}
	if scan(data, req, false) {
		return nil
	}
	*req = FANNRequest{}
	return json.NewDecoder(bytes.NewReader(data)).Decode(req)
}

// DecodePayload decodes a frame payload the way json.Unmarshal does: the
// request must be the whole of data. *req is overwritten whole; the
// error, if any, is encoding/json's.
func DecodePayload(data []byte, req *FANNRequest) error {
	*req = FANNRequest{}
	if scan(data, req, true) {
		return nil
	}
	*req = FANNRequest{}
	return json.Unmarshal(data, req)
}

// Body is a request body read into pooled memory. Nothing a decode
// returns aliases it, so it is released as soon as decoding is done.
type Body struct{ buf bytes.Buffer }

// maxPooledBody is the largest buffer a released Body keeps: typical
// bodies are a few KiB, and one 16 MiB request must not pin its buffer
// in the pool forever.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r to its end. sizeHint (a Content-Length; <= 0 when
// unknown) presizes the buffer. An error is r's own, so an
// *http.MaxBytesError keeps its identity.
func ReadBody(r io.Reader, sizeHint int64) (*Body, error) {
	b := bodyPool.Get().(*Body)
	if sizeHint > 0 && sizeHint <= maxPooledBody {
		b.buf.Grow(int(sizeHint) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := b.buf.ReadFrom(r); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// ReadFANN reads an HTTP request's body, at most limit bytes of it, and
// decodes it as DecodeBody does. The error is classified (BodyError): a
// longer body fails 413 with the *http.MaxBytesError of
// http.MaxBytesReader, whatever its first bytes hold; one the decoder
// refuses fails 400.
func ReadFANN(w http.ResponseWriter, r *http.Request, limit int64, req *FANNRequest) error {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		return BodyError(err)
	}
	defer body.Release()
	if err := DecodeBody(body.Bytes(), req); err != nil {
		return BodyError(err)
	}
	return nil
}

// Bytes returns what was read; valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release returns the buffer to the pool.
func (b *Body) Release() {
	if b.buf.Cap() > maxPooledBody {
		return
	}
	b.buf.Reset()
	bodyPool.Put(b)
}

// The seven keys, as bits of the seen-mask that rejects a repeated key.
const (
	keyP = 1 << iota
	keyQ
	keyPhi
	keyAgg
	keyAlgo
	keyEngine
	keyK
)

func keyOf(name []byte) uint8 {
	switch string(name) {
	case "p":
		return keyP
	case "q":
		return keyQ
	case "phi":
		return keyPhi
	case "agg":
		return keyAgg
	case "algo":
		return keyAlgo
	case "engine":
		return keyEngine
	case "k":
		return keyK
	}
	return 0
}

// scan parses data into req when it has the common shape and reports
// whether it did. On false req may be half-filled and the caller decodes
// the same bytes with encoding/json; scan never decides that a body is
// invalid. whole additionally requires nothing but whitespace after the
// object.
func scan(data []byte, req *FANNRequest, whole bool) bool {
	i, ok := scanObject(data, skipSpace(data, 0), keyOf, func(key uint8, i int) (int, bool) {
		var ok bool
		switch key {
		case keyP:
			req.P, i, ok = scanIDs(data, i)
		case keyQ:
			req.Q, i, ok = scanIDs(data, i)
		case keyPhi:
			req.Phi, i, ok = scanFloat(data, i)
		case keyK:
			req.K, i, ok = scanInt(data, i)
		case keyAgg:
			req.Agg, i, ok = scanName(data, i)
		case keyAlgo:
			req.Algo, i, ok = scanName(data, i)
		case keyEngine:
			req.Engine, i, ok = scanName(data, i)
		}
		return i, ok
	})
	return ok && (!whole || skipSpace(data, i) == len(data))
}

// scanObject walks one flat JSON object from data[i], calling value for
// each key — the index of its value in, the index after it out — and
// returns the index after the closing brace. keyOf names a key's bit (0
// for an unknown key); a key met twice, like anything unexpected, ends
// the scan with ok false.
func scanObject(data []byte, i int, keyOf func([]byte) uint8, value func(key uint8, i int) (int, bool)) (next int, ok bool) {
	if i == len(data) || data[i] != '{' {
		return i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	var seen uint8
	for {
		name, j, ok := scanString(data, i)
		key := keyOf(name)
		if !ok || key == 0 || seen&key != 0 {
			return i, false
		}
		seen |= key
		i = skipSpace(data, j)
		if i == len(data) || data[i] != ':' {
			return i, false
		}
		if i, ok = value(key, skipSpace(data, i+1)); !ok {
			return i, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return i, false
		}
		if data[i] == '}' {
			return i + 1, true
		}
		if data[i] != ',' {
			return i, false
		}
		i = skipSpace(data, i+1)
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// scanString reads a string of printable ASCII without escapes: the
// bytes between the quotes are then the string.
func scanString(data []byte, i int) (s []byte, next int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanName reads a string value, interned when it is a well-known name.
func scanName(data []byte, i int) (name string, next int, ok bool) {
	s, next, ok := scanString(data, i)
	return intern(s), next, ok
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// scanInt reads a JSON integer of at most nine digits, which fits every
// integer field of the request without an overflow check. Whether the
// number ends here (no fraction, no exponent) is for the caller to see
// in the byte that follows.
func scanInt(data []byte, i int) (v, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		v = v*10 + int(data[i]-'0')
		i++
	}
	if n := i - start; n == 0 || n > 9 || (n > 1 && data[start] == '0') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanIDs reads an array of integers. The slice is sized by the commas
// up to the closing bracket; it is empty, not nil, for "[]", as
// encoding/json leaves it.
func scanIDs(data []byte, i int) (ids []graph.NodeID, next int, ok bool) {
	if i == len(data) || data[i] != '[' {
		return nil, i, false
	}
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return nil, i, false
	}
	ids = make([]graph.NodeID, 0, 1+bytes.Count(data[i:i+end], []byte{','}))
	i = skipSpace(data, i+1)
	if data[i] == ']' {
		return ids, i + 1, true
	}
	for {
		var v int
		if v, i, ok = scanInt(data, i); !ok {
			return nil, i, false
		}
		ids = append(ids, graph.NodeID(v))
		i = skipSpace(data, i)
		switch data[i] { // in range: the ']' found above is still ahead
		case ']':
			return ids, i + 1, true
		case ',':
			i = skipSpace(data, i+1)
		default:
			return nil, i, false
		}
	}
}

// maxFloatToken keeps the number's string conversion on the stack.
const maxFloatToken = 32

// scanFloat reads a JSON number. The grammar is checked here because
// strconv accepts more than JSON does (hex, "Inf", a leading '+' or
// '.'); the value is strconv's, as it is for encoding/json.
func scanFloat(data []byte, i int) (v float64, next int, ok bool) {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	intStart := i
	i = skipDigits(data, i)
	if n := i - intStart; n == 0 || (n > 1 && data[intStart] == '0') {
		return 0, i, false
	}
	if i < len(data) && data[i] == '.' {
		fracStart := i + 1
		if i = skipDigits(data, fracStart); i == fracStart {
			return 0, i, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		expStart := i
		if i = skipDigits(data, expStart); i == expStart {
			return 0, i, false
		}
	}
	if i-start > maxFloatToken {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(data[start:i]), 64)
	return v, i, err == nil
}

// intern returns s as a string without allocating for the names a
// request normally carries: the aggregates, the algorithms and the
// engines the binaries register. Any other value is copied.
func intern(s []byte) string {
	switch string(s) {
	case "":
		return ""
	case "max":
		return "max"
	case "sum":
		return "sum"
	case "gd":
		return "gd"
	case "rlist":
		return "rlist"
	case "ier":
		return "ier"
	case "exactmax":
		return "exactmax"
	case "apxsum":
		return "apxsum"
	case "INE":
		return "INE"
	case "A*":
		return "A*"
	case "PHL":
		return "PHL"
	case "GTree":
		return "GTree"
	case "IER-A*":
		return "IER-A*"
	case "IER-PHL":
		return "IER-PHL"
	case "IER-GTree":
		return "IER-GTree"
	}
	return string(s)
}
