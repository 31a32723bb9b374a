package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fannr/internal/graph"
)

// checkResponseAgainstJSON is checkAgainstJSON for the reply scanner:
// what it accepts it decodes as json.Unmarshal does, and
// DecodeShardResponse's verdict, error and struct are json.Unmarshal's.
func checkResponseAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var want ShardResponse
	wantErr := json.Unmarshal(data, &want)

	var scanned ShardResponse
	if scanResponse(data, &scanned) {
		if wantErr != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", data, wantErr)
		}
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("%q\nscanner %+v\njson    %+v", data, scanned, want)
		}
	}

	got := ShardResponse{Engine: "stale", Micros: 9, Answers: []ShardAnswer{{P: 1}}}
	err := DecodeShardResponse(data, &got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: decoder err %v, encoding/json err %v", data, err, wantErr)
	}
	if err != nil && (reflect.TypeOf(err) != reflect.TypeOf(wantErr) || err.Error() != wantErr.Error()) {
		t.Fatalf("%q: decoder error %T %q, encoding/json %T %q", data, err, err, wantErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q\ndecoder %+v\njson    %+v", data, got, want)
	}
}

// checkAppendAgainstJSON is the encoding half: whatever request and
// reply the bytes decode to, each appender either writes json.Marshal's
// bytes or declines — and never declines a value of the common shape.
func checkAppendAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var req FANNRequest
	if json.Unmarshal(data, &req) == nil {
		checkRequestAppend(t, &req)
	}
	var resp ShardResponse
	if json.Unmarshal(data, &resp) == nil {
		checkResponseAppend(t, &resp)
	}
}

func checkRequestAppend(t *testing.T, req *FANNRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	got, ok := AppendFANNRequest([]byte("head"), req)
	if ok && (err != nil || !bytes.Equal(got, append([]byte("head"), want...))) {
		t.Fatalf("request %+v\nappended  %q\nmarshaled %q (err %v)", req, got, want, err)
	}
	if !ok && plainFloat(req.Phi) && plainString(req.Agg) && plainString(req.Algo) && plainString(req.Engine) {
		t.Fatalf("request %+v declined", req)
	}
}

func checkResponseAppend(t *testing.T, resp *ShardResponse) {
	t.Helper()
	want, err := json.Marshal(resp)
	got, ok := AppendShardResponse([]byte("head"), resp)
	if ok && (err != nil || !bytes.Equal(got, append([]byte("head"), want...))) {
		t.Fatalf("response %+v\nappended  %q\nmarshaled %q (err %v)", resp, got, want, err)
	}
	plain := plainString(resp.Engine)
	for _, a := range resp.Answers {
		plain = plain && plainFloat(a.Dist)
	}
	if !ok && plain {
		t.Fatalf("response %+v declined", resp)
	}
	if ok {
		checkResponseAgainstJSON(t, got[len("head"):]) // and it reads back
		var back ShardResponse
		if !scanResponse(got[len("head"):], &back) && resp.Micros < 1e9 && resp.Micros > -1e9 && resp.GPhiEvals < 1e9 && resp.GPhiEvals > -1e9 {
			t.Fatalf("the scanner declined the appender's own output %q", got)
		}
	}
}

func plainFloat(f float64) bool {
	abs := math.Abs(f)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && (abs == 0 || (abs >= 1e-6 && abs < 1e21))
}

func plainString(s string) bool {
	return !strings.ContainsFunc(s, func(r rune) bool {
		return r < 0x20 || r > 0x7e || strings.ContainsRune(`"\<>&`, r)
	})
}

var responseCases = []struct {
	name    string
	body    string
	scanned bool // the scanner accepts
	ok      bool // the decoder accepts
}{
	{"canonical", `{"answers":[{"p":9,"dist":2.5,"subset":[4,5]}],"engine":"PHL","micros":17}`, true, true},
	{"empty reply", `{"answers":null,"engine":"PHL","micros":0}`, true, true},
	{"empty array", `{"answers":[],"engine":"","micros":3}`, true, true},
	{"top-k", `{"answers":[{"p":1,"dist":0},{"p":2,"dist":1e-7,"subset":[]}],"engine":"INE","micros":42,"gphi_evals":7,"cache_hit":true}`, true, true},
	{"whitespace and order", " {\n\"micros\" : 5 ,\t\"cache_hit\":false, \"answers\" : [ { \"dist\" : -0.0 , \"p\" : -3 } ] }\r\n", true, true},
	{"empty object", `{}`, true, true},
	{"request body", `{"p":[1,2,3],"q":[4,5],"phi":0.5,"agg":"max","algo":"ier","engine":"IER-PHL","k":1}`, false, true},
	{"upper-case key", `{"Answers":[{"p":1,"dist":2}]}`, false, true},
	{"repeated key", `{"micros":1,"micros":2}`, false, true},
	{"repeated answer key", `{"answers":[{"p":1,"p":2,"dist":1}]}`, false, true},
	{"null subset", `{"answers":[{"p":1,"dist":1,"subset":null}]}`, false, true},
	{"null engine", `{"engine":null}`, false, true},
	{"escaped engine", `{"engine":"P\u0048L"}`, false, true},
	{"ten digit micros", `{"micros":1234567890}`, false, true},
	{"unknown key", `{"answers":[],"extra":1}`, false, true},
	{"trailing bytes", `{"answers":[]} x`, false, false},
	{"fraction p", `{"answers":[{"p":1.5,"dist":1}]}`, false, false},
	{"huge dist", `{"answers":[{"p":1,"dist":1e999}]}`, false, false},
	{"string micros", `{"micros":"7"}`, false, false},
	{"answers object", `{"answers":{"p":1}}`, false, false},
	{"trailing comma", `{"answers":[{"p":1,"dist":1},]}`, false, false},
	{"nul literal", `{"answers":nul}`, false, false},
	{"truncated", `{"answers":[{"p":1,"dist":`, false, false},
	{"empty", ``, false, false},
}

func TestShardResponseTable(t *testing.T) {
	for _, tc := range responseCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.body)
			checkResponseAgainstJSON(t, data)
			var r ShardResponse
			if got := scanResponse(data, &r); got != tc.scanned {
				t.Errorf("scanner accepted = %v, want %v", got, tc.scanned)
			}
			if err := DecodeShardResponse(data, &r); (err == nil) != tc.ok {
				t.Errorf("DecodeShardResponse: err = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}

// Values JSON bodies cannot carry into the fuzz target, and the ones on
// the edge of encoding/json's two float formats.
func TestShardAppendEdges(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300, -2.75,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 1.0 / 3} {
		checkRequestAppend(t, &FANNRequest{P: []graph.NodeID{1}, Q: []graph.NodeID{}, Phi: f, K: -4})
		checkResponseAppend(t, &ShardResponse{Answers: []ShardAnswer{{P: -7, Dist: f, Subset: []graph.NodeID{3}}}})
	}
	for _, s := range []string{"", "PHL", "IER-A*", "a b", `a"b`, `a\b`, "<x>", "a&b", "é", "a\x00b", "a\x7fb", "\xff"} {
		checkRequestAppend(t, &FANNRequest{Agg: s, Algo: s, Engine: s})
		checkResponseAppend(t, &ShardResponse{Engine: s})
	}
	checkRequestAppend(t, &FANNRequest{})
	checkResponseAppend(t, &ShardResponse{})
	checkResponseAppend(t, &ShardResponse{Answers: []ShardAnswer{}, CacheHit: true, GPhiEvals: -1, Micros: math.MaxInt64})
}

// FuzzShardBodies is the differential gate between the shard RPC's
// append/scan paths and encoding/json (make fuzz-smoke).
func FuzzShardBodies(f *testing.F) {
	for _, tc := range responseCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Add(shapedBody(rand.New(rand.NewSource(1)), 211, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseAgainstJSON(t, data)
		checkAppendAgainstJSON(t, data)
	})
}

// BenchmarkShardCodec prices one shard call's two bodies at shard4's
// shape — a 211-id slice of P with an 8-id Q out, one answer with a
// 4-id subset back — through the append/scan paths and through
// encoding/json.
func BenchmarkShardCodec(b *testing.B) {
	var req FANNRequest
	if err := json.Unmarshal(shapedBody(rand.New(rand.NewSource(4)), 211, 8), &req); err != nil {
		b.Fatal(err)
	}
	resp := ShardResponse{Answers: []ShardAnswer{{P: 4711, Dist: 1234.5678901234, Subset: []graph.NodeID{5, 77, 901, 12004}}}, Engine: "PHL", Micros: 97}
	reqBody, _ := json.Marshal(&req)
	respBody, _ := json.Marshal(&resp)
	for _, path := range []struct {
		name string
		fn   func(buf []byte) ([]byte, error)
	}{
		{"append-scan", func(buf []byte) ([]byte, error) {
			buf, _ = AppendFANNRequest(buf[:0], &req)
			var r FANNRequest
			if err := DecodePayload(reqBody, &r); err != nil {
				return buf, err
			}
			buf, _ = AppendShardResponse(buf[:0], &resp)
			var back ShardResponse
			return buf, DecodeShardResponse(respBody, &back)
		}},
		{"encoding-json", func(buf []byte) ([]byte, error) {
			if _, err := json.Marshal(&req); err != nil {
				return buf, err
			}
			var r FANNRequest
			if err := json.Unmarshal(reqBody, &r); err != nil {
				return buf, err
			}
			if _, err := json.Marshal(&resp); err != nil {
				return buf, err
			}
			var back ShardResponse
			return buf, json.Unmarshal(respBody, &back)
		}},
	} {
		b.Run(fmt.Sprintf("211+8/%s", path.name), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = path.fn(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
