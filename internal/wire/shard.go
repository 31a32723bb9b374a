package wire

import (
	"encoding/json"
	"math"
	"strconv"

	"fannr/internal/graph"
)

// The shard RPC's two bodies — the coordinator sends a FANNRequest, the
// host replies with a ShardResponse — are written and read on every
// scattered call, so both directions have a reflection-free path beside
// encoding/json, built like the request decoder above: an appender that
// produces exactly the bytes json.Marshal would and steps aside for a
// value it cannot (a string that needs escaping, a float encoding/json
// writes with an exponent or refuses), and a scanner for exactly the
// shape the appender writes that hands anything else, untouched, to
// json.Unmarshal. FuzzShardBodies holds each to its encoding/json twin.

// ShardAnswer mirrors the public FANN answer shape.
type ShardAnswer struct {
	P      graph.NodeID   `json:"p"`
	Dist   float64        `json:"dist"`
	Subset []graph.NodeID `json:"subset,omitempty"`
}

// ShardResponse is a shard's reply. A shard that owns no candidate close
// enough simply returns an empty Answers list — per-shard "no result" is
// a successful empty reply, not an error; only the coordinator can
// decide the global query found nothing.
type ShardResponse struct {
	Answers []ShardAnswer `json:"answers"`
	Engine  string        `json:"engine"`
	Micros  int64         `json:"micros"`
	// Stats the coordinator folds into EXPLAIN spans.
	GPhiEvals int64 `json:"gphi_evals,omitempty"`
	CacheHit  bool  `json:"cache_hit,omitempty"`
}

// AppendFANNRequest appends r as json.Marshal encodes it. ok is false
// when r holds a value this path does not write; dst's new contents are
// then meaningless and the caller marshals r with encoding/json.
func AppendFANNRequest(dst []byte, r *FANNRequest) (out []byte, ok bool) {
	dst = appendIDs(append(dst, `{"p":`...), r.P)
	dst = appendIDs(append(dst, `,"q":`...), r.Q)
	if dst, ok = appendFloat(append(dst, `,"phi":`...), r.Phi); !ok {
		return dst, false
	}
	if dst, ok = appendString(append(dst, `,"agg":`...), r.Agg); !ok {
		return dst, false
	}
	if dst, ok = appendString(append(dst, `,"algo":`...), r.Algo); !ok {
		return dst, false
	}
	if dst, ok = appendString(append(dst, `,"engine":`...), r.Engine); !ok {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.K), 10)
	return append(dst, '}'), true
}

// AppendShardResponse is AppendFANNRequest for the reply.
func AppendShardResponse(dst []byte, r *ShardResponse) (out []byte, ok bool) {
	dst = append(dst, `{"answers":`...)
	if r.Answers == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Answers {
			a := &r.Answers[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"p":`...), int64(a.P), 10)
			if dst, ok = appendFloat(append(dst, `,"dist":`...), a.Dist); !ok {
				return dst, false
			}
			if len(a.Subset) > 0 {
				dst = appendIDs(append(dst, `,"subset":`...), a.Subset)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if dst, ok = appendString(append(dst, `,"engine":`...), r.Engine); !ok {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, `,"micros":`...), r.Micros, 10)
	if r.GPhiEvals != 0 {
		dst = strconv.AppendInt(append(dst, `,"gphi_evals":`...), r.GPhiEvals, 10)
	}
	if r.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	return append(dst, '}'), true
}

func appendIDs(dst []byte, ids []graph.NodeID) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, ']')
}

// appendFloat writes f as encoding/json does inside the range where that
// is strconv's shortest 'f' form; outside it (exponent form) and for the
// values JSON cannot carry it declines.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if abs := math.Abs(f); math.IsNaN(f) || abs >= 1e21 || (abs < 1e-6 && abs != 0) {
		return dst, false
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), true
}

// appendString writes s quoted when encoding/json would write it
// unchanged: printable ASCII but for the quote, the backslash and the
// three characters it escapes for HTML.
func appendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// DecodeShardResponse decodes a frame payload the way json.Unmarshal
// does. *r is overwritten whole; the error, if any, is encoding/json's.
func DecodeShardResponse(data []byte, r *ShardResponse) error {
	*r = ShardResponse{}
	if scanResponse(data, r) {
		return nil
	}
	*r = ShardResponse{}
	return json.Unmarshal(data, r)
}

// The reply's keys and the answer object's, as bits of their seen-masks.
const (
	keyAnswers = 1 << iota
	keyRespEngine
	keyMicros
	keyEvals
	keyCacheHit
)

const (
	keyAnsP = 1 << iota
	keyDist
	keySubset
)

func responseKey(name []byte) uint8 {
	switch string(name) {
	case "answers":
		return keyAnswers
	case "engine":
		return keyRespEngine
	case "micros":
		return keyMicros
	case "gphi_evals":
		return keyEvals
	case "cache_hit":
		return keyCacheHit
	}
	return 0
}

func answerKey(name []byte) uint8 {
	switch string(name) {
	case "p":
		return keyAnsP
	case "dist":
		return keyDist
	case "subset":
		return keySubset
	}
	return 0
}

// scanResponse parses data into r when it has the shape
// AppendShardResponse writes (keys in any order, JSON whitespace
// anywhere) and reports whether it did; like scan it never rejects.
func scanResponse(data []byte, r *ShardResponse) bool {
	i, ok := scanObject(data, skipSpace(data, 0), responseKey, func(key uint8, i int) (int, bool) {
		var ok bool
		switch key {
		case keyAnswers:
			r.Answers, i, ok = scanAnswers(data, i)
		case keyRespEngine:
			r.Engine, i, ok = scanName(data, i)
		case keyMicros:
			var v int
			v, i, ok = scanInt(data, i)
			r.Micros = int64(v)
		case keyEvals:
			var v int
			v, i, ok = scanInt(data, i)
			r.GPhiEvals = int64(v)
		case keyCacheHit:
			r.CacheHit, i, ok = scanBool(data, i)
		}
		return i, ok
	})
	return ok && skipSpace(data, i) == len(data)
}

// scanAnswers reads null (nil, as encoding/json leaves it) or an array
// of answer objects (empty, not nil, for "[]").
func scanAnswers(data []byte, i int) (answers []ShardAnswer, next int, ok bool) {
	if hasPrefixAt(data, i, "null") {
		return nil, i + 4, true
	}
	if i == len(data) || data[i] != '[' {
		return nil, i, false
	}
	answers = []ShardAnswer{}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return answers, i + 1, true
	}
	for {
		var a ShardAnswer
		i, ok = scanObject(data, i, answerKey, func(key uint8, i int) (int, bool) {
			var ok bool
			switch key {
			case keyAnsP:
				var v int
				v, i, ok = scanInt(data, i)
				a.P = graph.NodeID(v)
			case keyDist:
				a.Dist, i, ok = scanFloat(data, i)
			case keySubset:
				a.Subset, i, ok = scanIDs(data, i)
			}
			return i, ok
		})
		if !ok {
			return nil, i, false
		}
		answers = append(answers, a)
		i = skipSpace(data, i)
		if i == len(data) {
			return nil, i, false
		}
		switch data[i] {
		case ']':
			return answers, i + 1, true
		case ',':
			i = skipSpace(data, i+1)
		default:
			return nil, i, false
		}
	}
}

func hasPrefixAt(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

func scanBool(data []byte, i int) (v bool, next int, ok bool) {
	switch {
	case hasPrefixAt(data, i, "true"):
		return true, i + 4, true
	case hasPrefixAt(data, i, "false"):
		return false, i + 5, true
	}
	return false, i, false
}
