package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"fannr/internal/graph"
)

// jsonDecode is the reference: what each tier ran before the scanner
// existed, and what it still runs for anything the scanner declines.
func jsonDecode(data []byte, req *FANNRequest, whole bool) error {
	if whole {
		return json.Unmarshal(data, req)
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(req)
}

func decode(data []byte, req *FANNRequest, whole bool) error {
	if whole {
		return DecodePayload(data, req)
	}
	return DecodeBody(data, req)
}

// checkAgainstJSON is the differential property, in both trailing-byte
// modes: what the scanner accepts it decodes as encoding/json does, and
// the combined decoder's verdict, error and struct are encoding/json's.
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	for _, whole := range []bool{false, true} {
		var want FANNRequest
		wantErr := jsonDecode(data, &want, whole)

		var scanned FANNRequest
		if scan(data, &scanned, whole) {
			if wantErr != nil {
				t.Fatalf("whole=%v: scanner accepted %q, encoding/json rejects it: %v", whole, data, wantErr)
			}
			if !reflect.DeepEqual(scanned, want) {
				t.Fatalf("whole=%v: %q\nscanner %+v\njson    %+v", whole, data, scanned, want)
			}
		}

		var got FANNRequest
		err := decode(data, &got, whole)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("whole=%v: %q: decoder err %v, encoding/json err %v", whole, data, err, wantErr)
		}
		if err != nil && (reflect.TypeOf(err) != reflect.TypeOf(wantErr) || err.Error() != wantErr.Error()) {
			t.Fatalf("whole=%v: %q: decoder error %T %q, encoding/json %T %q", whole, data, err, err, wantErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("whole=%v: %q\ndecoder %+v\njson    %+v", whole, data, got, want)
		}
	}
}

// decodeCases is the seed corpus of the fuzz gate and the table of
// TestDecodeTable. stream and whole say whether the scanner takes the
// body in stream mode (DecodeBody) and in whole mode (DecodePayload); the
// two differ exactly on trailing bytes, which json.Decoder ignores and
// json.Unmarshal rejects.
var decodeCases = []struct {
	name           string
	body           string
	stream, whole  bool // the scanner accepts
	okStream, okWh bool // the decoder accepts
}{
	{"canonical", `{"p":[1,2,3],"q":[4,5],"phi":0.5,"agg":"max","algo":"ier","engine":"IER-PHL","k":1}`, true, true, true, true},
	{"key order reversed", `{"k":3,"engine":"PHL","algo":"gd","agg":"sum","phi":1,"q":[9],"p":[7,8]}`, true, true, true, true},
	{"key order mixed", `{"phi":0.25,"p":[1],"k":2,"q":[2,3],"algo":"rlist"}`, true, true, true, true},
	{"all whitespace", " \t\r\n{ \"p\" :\t[ 1 ,\n2 ] ,\r\"q\": [ 3 ] , \"phi\" : 1e0 }\n\t ", true, true, true, true},
	{"empty object", `{}`, true, true, true, true},
	{"empty arrays", `{"p":[],"q":[ ]}`, true, true, true, true},
	{"unknown engine name", `{"engine":"warp drive #9"}`, true, true, true, true},
	{"phi forms", `{"phi":-0.0e+00}`, true, true, true, true},
	{"phi integer", `{"phi":1}`, true, true, true, true},
	{"nine digit id", `{"p":[999999999]}`, true, true, true, true},
	{"negative ids", `{"p":[-3,-0],"k":-1}`, true, true, true, true},

	{"trailing object", `{"p":[1]}{"p":[2]}`, true, false, true, false},
	{"trailing garbage", `{"p":[1]} trailing`, true, false, true, false},
	{"trailing brace", `{"q":[1]}}`, true, false, true, false},
	{"trailing whitespace", "{\"q\":[1]}\n\n", true, true, true, true},

	{"repeated key", `{"p":[1],"p":[2]}`, false, false, true, true},
	{"repeated string key", `{"agg":"max","agg":"sum"}`, false, false, true, true},
	{"upper-case P", `{"P":[1]}`, false, false, true, true},
	{"capitalised Phi", `{"Phi":0.5}`, false, false, true, true},
	{"escaped key", `{"\u0070":[1]}`, false, false, true, true},
	{"escaped string", `{"agg":"m\u0061x"}`, false, false, true, true},
	{"backslash in string", `{"engine":"a\\b"}`, false, false, true, true},
	{"non-ascii string", `{"engine":"pHLéé"}`, false, false, true, true},
	{"null p", `{"p":null}`, false, false, true, true},
	{"null q", `{"q":null}`, false, false, true, true},
	{"null phi", `{"phi":null}`, false, false, true, true},
	{"null agg", `{"agg":null}`, false, false, true, true},
	{"null algo", `{"algo":null}`, false, false, true, true},
	{"null engine", `{"engine":null}`, false, false, true, true},
	{"null k", `{"k":null}`, false, false, true, true},
	{"null element", `{"p":[1,null]}`, false, false, true, true},
	{"unknown key", `{"p":[1],"pad":"x"}`, false, false, true, true},
	{"nested unknown", `{"extra":{"p":[1]},"q":[2]}`, false, false, true, true},
	{"fraction id", `{"p":[1.0]}`, false, false, false, false},
	{"exponent id", `{"p":[1e2]}`, false, false, false, false},
	{"fraction k", `{"k":1.5}`, false, false, false, false},
	{"ten digit id", `{"p":[1073741824]}`, false, false, true, true},
	{"overflowing id", `{"p":[4294967296]}`, false, false, false, false},
	{"huge phi", `{"phi":1e999}`, false, false, false, false},
	{"long phi", `{"phi":0.` + strings.Repeat("3", 40) + `}`, false, false, true, true},
	{"leading zero", `{"p":[01]}`, false, false, false, false},
	{"bare minus", `{"p":[-]}`, false, false, false, false},
	{"plus sign", `{"phi":+1}`, false, false, false, false},
	{"leading dot", `{"phi":.5}`, false, false, false, false},
	{"hex float", `{"phi":0x1p-2}`, false, false, false, false},
	{"string for list", `{"p":"not-a-list"}`, false, false, false, false},
	{"number for string", `{"agg":3}`, false, false, false, false},
	{"nested array", `{"p":[[1]]}`, false, false, false, false},
	{"trailing comma in array", `{"p":[1,]}`, false, false, false, false},
	{"trailing comma in object", `{"p":[1],}`, false, false, false, false},
	{"control byte in string", "{\"agg\":\"a\x01\"}", false, false, false, false},
	{"truncated array", `{"p":[1,2`, false, false, false, false},
	{"truncated after colon", `{"p":`, false, false, false, false},
	{"truncated key", `{"p`, false, false, false, false},
	{"truncated object", `{"p":[1]`, false, false, false, false},
	{"top-level array", `[1,2]`, false, false, false, false},
	{"top-level null", `null`, false, false, true, true},
	{"empty body", ``, false, false, false, false},
	{"only whitespace", "  \n", false, false, false, false},
}

func TestDecodeTable(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.body)
			checkAgainstJSON(t, data)
			var req FANNRequest
			if got := scan(data, &req, false); got != tc.stream {
				t.Errorf("scanner, stream mode: accepted = %v, want %v", got, tc.stream)
			}
			if got := scan(data, &req, true); got != tc.whole {
				t.Errorf("scanner, whole mode: accepted = %v, want %v", got, tc.whole)
			}
			if err := DecodeBody(data, &req); (err == nil) != tc.okStream {
				t.Errorf("DecodeBody: err = %v, want ok = %v", err, tc.okStream)
			}
			if err := DecodePayload(data, &req); (err == nil) != tc.okWh {
				t.Errorf("DecodePayload: err = %v, want ok = %v", err, tc.okWh)
			}
		})
	}
}

// A decode overwrites the struct whole: keys the body leaves out do not
// keep a previous request's values, neither on the scanner path nor
// after the scanner half-filled the struct and gave up.
func TestDecodeStartsFromZero(t *testing.T) {
	for _, body := range []string{
		`{"q":[1],"p":[2]}`,
		`{"q":[1],"P":[2]}`, // "P" is encoding/json's, after the scanner read q
	} {
		req := FANNRequest{P: []graph.NodeID{9}, Agg: "sum", K: 4}
		if err := DecodeBody([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want := FANNRequest{P: []graph.NodeID{2}, Q: []graph.NodeID{1}}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("%s: got %+v, want %+v", body, req, want)
		}
	}
}

// FuzzDecodeFANN is the differential gate between the scanner and
// encoding/json (make fuzz-smoke).
func FuzzDecodeFANN(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Add(shapedBody(rand.New(rand.NewSource(1)), 169, 128))
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstJSON(t, data) })
}

func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 5000)
	for i := 0; i < 3; i++ { // the second and third reads reuse the buffer
		b, err := ReadBody(bytes.NewReader(payload), int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), payload) {
			t.Fatalf("read %d bytes, want %d", len(b.Bytes()), len(payload))
		}
		b.Release()
	}
	// No size hint, and a reader error comes back as it is.
	b, err := ReadBody(strings.NewReader("abc"), -1)
	if err != nil || string(b.Bytes()) != "abc" {
		t.Fatalf("got %q, %v", b.Bytes(), err)
	}
	b.Release()
	limited := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(payload)), 100)
	var tooBig *http.MaxBytesError
	if _, err := ReadBody(limited, int64(len(payload))); !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want *http.MaxBytesError", err)
	}
	// A buffer grown past the pooling cap is dropped, not kept.
	big, err := ReadBody(bytes.NewReader(make([]byte, maxPooledBody+1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	big.Release()
	if big.buf.Len() == 0 {
		t.Fatal("an over-cap Body was reset for pooling")
	}
}

// shapedBody marshals a request with np + nq ids drawn below 16 865 (NW
// at scale 1/64), the way bench/ and any encoding/json client write it.
func shapedBody(rng *rand.Rand, np, nq int) []byte {
	ids := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(rng.Intn(16865))
		}
		return out
	}
	body, err := json.Marshal(&FANNRequest{P: ids(np), Q: ids(nq), Phi: 0.5, Agg: "max", Algo: "ier", Engine: "IER-PHL", K: 1})
	if err != nil {
		panic(err)
	}
	return body
}

// A body of well-known names costs the two id slices and nothing else.
func TestDecodeAllocs(t *testing.T) {
	body := shapedBody(rand.New(rand.NewSource(2)), 169, 128)
	var req FANNRequest
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeBody(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeBody allocates %v times per body, want <= 2 (P and Q)", allocs)
	}
}

// BenchmarkDecodeFANN prices the two decoders on the bodies the
// benchmark's workloads send: hot_ier (169 + 128 ids) and what a shard4
// coordinator reads (844 + 8).
func BenchmarkDecodeFANN(b *testing.B) {
	for _, shape := range []struct {
		name   string
		np, nq int
	}{{"hot_ier", 169, 128}, {"shard4", 844, 8}} {
		body := shapedBody(rand.New(rand.NewSource(3)), shape.np, shape.nq)
		for _, dec := range []struct {
			name string
			fn   func([]byte, *FANNRequest) error
		}{
			{"scanner", DecodeBody},
			{"encoding-json", func(data []byte, req *FANNRequest) error { return jsonDecode(data, req, false) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", shape.name, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req FANNRequest
					if err := dec.fn(body, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
