package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
)

// checkReplyAppend holds AppendFANNResponse to json.NewEncoder: the same
// bytes, trailing newline included, or a decline — and a decline only for
// a distance encoding/json writes with an exponent or refuses, or an
// engine name it escapes.
func checkReplyAppend(t *testing.T, resp *FANNResponse) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(resp)
	got, ok := AppendFANNResponse([]byte("head"), resp)
	if ok && (err != nil || !bytes.Equal(got, append([]byte("head"), want.Bytes()...))) {
		t.Fatalf("reply %+v\nappended %q\nencoded  %q (err %v)", resp, got, want.Bytes(), err)
	}
	plain := plainString(resp.Engine)
	for _, a := range resp.Answers {
		plain = plain && plainFloat(a.Dist)
	}
	if !ok && plain {
		t.Fatalf("reply %+v declined", resp)
	}
}

// replyAnswers is k answers whose subsets hold m ids each.
func replyAnswers(rng *rand.Rand, k, m int) []core.Answer {
	out := make([]core.Answer, k)
	for i := range out {
		out[i] = core.Answer{P: graph.NodeID(rng.Intn(16865)), Dist: rng.Float64() * 1e5, Subset: make([]graph.NodeID, m)}
		for j := range out[i].Subset {
			out[i].Subset[j] = graph.NodeID(rng.Intn(16865))
		}
	}
	return out
}

// replySeeds are the reply shapes a /fann answer takes: no answers, nil
// and empty subsets, a degraded answer, cache_zipf's largest (five
// answers of 128 ids) and one carrying an explain report.
func replySeeds() []*FANNResponse {
	tr := obs.NewTrace("seed-1")
	sp := tr.StartSpan("cache")
	sp.SetAttr("outcome", "exact")
	sp.SetAttr("key_engine", "PHL@2")
	sp.Count("cache_hits", 1)
	sp.End()
	tr.Root().SetAttr("generation", uint64(2))
	tr.Root().End()
	return []*FANNResponse{
		{Engine: "PHL", Micros: 3},
		{Answers: []core.Answer{{P: 4, Dist: 12.5}, {P: 9, Dist: 0, Subset: []graph.NodeID{}}}, Engine: "INE", Micros: 40},
		{Answers: []core.Answer{{P: 7, Dist: 1.0 / 3, Subset: []graph.NodeID{1, 2}}}, Engine: "INE", Micros: 88, Degraded: true},
		{Answers: replyAnswers(rand.New(rand.NewSource(5)), 5, 128), Engine: "IER-PHL", Micros: 61},
		{Answers: []core.Answer{{P: 11, Dist: 250.75, Subset: []graph.NodeID{3}}}, Engine: "PHL", Micros: 9, Explain: tr.Report()},
	}
}

// One reply path for every 200: appended or, where the appender
// declines, encoding/json — either way one Write with its Content-Length
// and the bytes json.NewEncoder writes. A reply that does not encode is
// a 500, not a 200 with a cut body.
func TestWriteFANNResponse(t *testing.T) {
	for _, r := range append(replySeeds(),
		&FANNResponse{Answers: []core.Answer{{P: 1, Dist: 1e-7}}, Engine: "PHL"},
		&FANNResponse{Answers: []core.Answer{{P: 1, Dist: 2}}, Engine: "<PHL>"}) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		WriteFANNResponse(rr, r)
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%d %q, want 200 %q", rr.Code, rr.Body.Bytes(), want.Bytes())
		}
		if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length %q, want %d", cl, want.Len())
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
	}
	rr := httptest.NewRecorder()
	WriteFANNResponse(rr, &FANNResponse{Answers: []core.Answer{{P: 1, Dist: math.Inf(1)}}, Engine: "PHL"})
	var e ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); rr.Code != http.StatusInternalServerError || err != nil || e.Code != "internal" {
		t.Fatalf("unencodable reply: %d %q", rr.Code, rr.Body.Bytes())
	}
}

// BenchmarkFANNReply prices one /fann reply at cache_zipf's shapes — k = 1
// or 5 answers whose subsets hold ⌈φ·128⌉ ids, φ = 0.5 or 1 — through
// json.NewEncoder, as the server wrote it, and through AppendFANNResponse.
func BenchmarkFANNReply(b *testing.B) {
	for _, shape := range []struct{ k, m int }{{1, 64}, {5, 64}, {5, 128}} {
		r := &FANNResponse{Answers: replyAnswers(rand.New(rand.NewSource(9)), shape.k, shape.m), Engine: "IER-PHL", Micros: 73}
		b.Run(fmt.Sprintf("%dx%d/encoding-json", shape.k, shape.m), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/append", shape.k, shape.m), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 8192)
			for i := 0; i < b.N; i++ {
				var ok bool
				if buf, ok = AppendFANNResponse(buf[:0], r); !ok {
					b.Fatal("declined")
				}
			}
		})
	}
}
