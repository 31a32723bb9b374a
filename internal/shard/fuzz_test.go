package shard

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// FuzzShardRPC drives the frame codec with arbitrary bytes: forged
// lengths, truncation, version skew, checksum damage — every input must
// either decode cleanly or error; a panic fails the fuzz run. For inputs
// that do decode, re-encoding the payload must reproduce the input
// byte-for-byte (the codec is canonical), so a mutation that survives
// decoding but changes meaning is impossible.
func FuzzShardRPC(f *testing.F) {
	seedReq, _ := EncodeRequest(&Request{
		P: []graph.NodeID{1, 2, 3}, Q: []graph.NodeID{4, 5}, Phi: 0.5,
		Agg: "sum", Algo: "rlist", Engine: "PHL", K: 3,
	})
	seedResp, _ := EncodeResponse(&Response{
		Answers: []core.Answer{{P: 9, Dist: 2.5, Subset: []graph.NodeID{4}}}, Engine: "PHL", Micros: 17,
	})
	f.Add(seedReq)
	f.Add(seedResp)
	f.Add([]byte{})
	f.Add([]byte("FSRP"))
	// Version-skew seed: a well-formed frame stamped v2.
	skew := append([]byte(nil), seedReq...)
	binary.BigEndian.PutUint16(skew[4:], CodecVersion+1)
	f.Add(skew)
	// Forged-length seed: header claims 1 GiB.
	forged := append([]byte(nil), seedReq...)
	binary.BigEndian.PutUint32(forged[8:], 1<<30)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeFrame(data)
		if err != nil {
			return // rejected, and did not panic — that is the contract
		}
		reframed, err := EncodeFrame(payload)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(reframed, data) {
			t.Fatalf("codec not canonical: %d bytes in, %d bytes re-encoded", len(data), len(reframed))
		}
		// The JSON layer must also never panic, whatever the payload.
		_, _ = DecodeRequest(data)
		_, _ = DecodeResponse(data)
	})
}
