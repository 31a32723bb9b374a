package shard

import (
	"encoding/binary"
	"errors"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
)

func TestCodecRoundTrip(t *testing.T) {
	req := &Request{
		P: []graph.NodeID{3, 7, 11}, Q: []graph.NodeID{1, 2}, Phi: 0.5,
		Agg: "max", Algo: "gd", Engine: "INE", K: 2,
	}
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.P) != 3 || got.P[0] != 3 || got.Phi != 0.5 || got.Engine != "INE" || got.K != 2 {
		t.Fatalf("round trip mangled request: %+v", got)
	}
	resp := &Response{Answers: []core.Answer{{P: 7, Dist: 1.25}}, Engine: "INE", Micros: 42}
	rframe, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := DecodeResponse(rframe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rgot.Answers) != 1 || rgot.Answers[0].Dist != 1.25 || rgot.Micros != 42 {
		t.Fatalf("round trip mangled response: %+v", rgot)
	}
}

// Every forged-frame class must come back as ErrCodec, never a panic.
func TestCodecRejectsForgedFrames(t *testing.T) {
	good, err := EncodeRequest(&Request{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:8],
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0xFF),
		"bad magic": mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b }),
		"version skew": mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[4:], CodecVersion+1)
			return b
		}),
		"reserved flags": mutate(func(b []byte) []byte { b[6] = 1; return b }),
		"forged length": mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:], 1<<30)
			return b
		}),
		"length mismatch": mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:], binary.BigEndian.Uint32(b[8:])+1)
			return b
		}),
		"bit rot": mutate(func(b []byte) []byte { b[frameHeader+2] ^= 0x40; return b }),
	}
	for name, data := range cases {
		if _, err := DecodeRequest(data); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
}
