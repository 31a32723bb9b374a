// Package shard is the distributed scatter-gather serving subsystem: a
// partition plan that cuts P-object ownership along the G-tree's
// balanced partition tree, shard hosts that each run a full engine set
// over the graph behind a versioned JSON-over-HTTP RPC, and a
// coordinator that fans a query only to shards whose g_φ lower bound
// beats the running k-th result, merging per-shard top-k lists into an
// exact global answer. See DESIGN.md §12 for the bound derivation and
// the failure semantics.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"fannr/internal/wire"
)

// Wire frame: magic | version u16 | flags u16 | length u32 | payload |
// crc32(payload). The frame exists so a shard host never trusts a raw
// byte stream: forged lengths, truncation, version skew and bit rot are
// all detected before the JSON decoder ever runs, and every decode
// failure is an error — never a panic (FuzzShardRPC enforces this).
const (
	frameMagic   = 0x46535250 // "FSRP"
	CodecVersion = 1
	frameHeader  = 4 + 2 + 2 + 4 // magic, version, flags, length
	frameTrailer = 4             // crc32
	// maxFramePayload bounds a frame's JSON payload, mirroring the HTTP
	// server's request-body cap.
	maxFramePayload = 16 << 20
)

// EncodeFrame wraps payload in a version-1 frame.
func EncodeFrame(payload []byte) ([]byte, error) {
	return sealFrame(append(make([]byte, frameHeader, frameHeader+len(payload)+frameTrailer), payload...))
}

// sealFrame makes a frame of buf, whose first frameHeader bytes are
// room for the header and the rest the payload: it fills the header in
// and appends the checksum.
func sealFrame(buf []byte) ([]byte, error) {
	payload := buf[frameHeader:]
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds cap %d", ErrCodec, len(payload), maxFramePayload)
	}
	binary.BigEndian.PutUint32(buf[0:], frameMagic)
	binary.BigEndian.PutUint16(buf[4:], CodecVersion)
	binary.BigEndian.PutUint16(buf[6:], 0)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload)), nil
}

// DecodeFrame validates a frame and returns its payload. The payload is
// a subslice of data, not a copy. Every malformation — truncation,
// forged length, version skew, reserved flags, checksum mismatch,
// trailing garbage — is an ErrCodec-wrapped error.
func DecodeFrame(data []byte) ([]byte, error) {
	if len(data) < frameHeader+frameTrailer {
		return nil, fmt.Errorf("%w: frame %d bytes, need at least %d", ErrCodec, len(data), frameHeader+frameTrailer)
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCodec, m)
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != CodecVersion {
		return nil, fmt.Errorf("%w: version skew: frame v%d, this binary speaks v%d", ErrCodec, v, CodecVersion)
	}
	if f := binary.BigEndian.Uint16(data[6:]); f != 0 {
		return nil, fmt.Errorf("%w: reserved flags %#x set", ErrCodec, f)
	}
	n := binary.BigEndian.Uint32(data[8:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: forged length %d exceeds cap %d", ErrCodec, n, maxFramePayload)
	}
	if uint64(len(data)) != uint64(frameHeader)+uint64(n)+uint64(frameTrailer) {
		return nil, fmt.Errorf("%w: frame %d bytes, header claims %d payload", ErrCodec, len(data), n)
	}
	payload := data[frameHeader : frameHeader+int(n)]
	want := binary.BigEndian.Uint32(data[frameHeader+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch: %#x vs %#x", ErrCodec, got, want)
	}
	return payload, nil
}

// Request is one shard RPC: the FANN query restricted to the P-objects
// the coordinator routed to this shard. It is the public /fann request,
// type and decoder both.
type Request = wire.FANNRequest

// Response is a shard's reply. A shard that owns no candidate close
// enough simply returns an empty Answers list — per-shard "no result" is
// a successful empty reply, not an error; only the coordinator can
// decide the global query found nothing.
type Response = wire.ShardResponse

// EncodeRequest / DecodeRequest / EncodeResponse / DecodeResponse frame
// the JSON bodies. Both directions run through the same frame codec, so
// the in-process transport exercises byte-for-byte what HTTP ships. A
// body is appended straight into its frame (internal/wire); a value that
// path does not write is marshalled by encoding/json, and the two
// produce the same bytes.

func EncodeRequest(r *Request) ([]byte, error) {
	// Ids dominate a request; seven bytes hold a six-digit id and its
	// comma, and append grows the buffer for a graph with longer ones.
	buf := make([]byte, frameHeader, frameHeader+128+7*(len(r.P)+len(r.Q))+frameTrailer)
	if buf, ok := wire.AppendFANNRequest(buf, r); ok {
		return sealFrame(buf)
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return EncodeFrame(payload)
}

func DecodeRequest(data []byte) (*Request, error) {
	payload, err := DecodeFrame(data)
	if err != nil {
		return nil, err
	}
	var r Request
	if err := wire.DecodePayload(payload, &r); err != nil {
		return nil, fmt.Errorf("%w: request body: %s", ErrCodec, err)
	}
	return &r, nil
}

func EncodeResponse(r *Response) ([]byte, error) {
	size := frameHeader + 128 + frameTrailer
	for i := range r.Answers {
		size += 64 + 7*len(r.Answers[i].Subset)
	}
	buf := make([]byte, frameHeader, size)
	if buf, ok := wire.AppendShardResponse(buf, r); ok {
		return sealFrame(buf)
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return EncodeFrame(payload)
}

func DecodeResponse(data []byte) (*Response, error) {
	payload, err := DecodeFrame(data)
	if err != nil {
		return nil, err
	}
	var r Response
	if err := wire.DecodeShardResponse(payload, &r); err != nil {
		return nil, fmt.Errorf("%w: response body: %s", ErrCodec, err)
	}
	return &r, nil
}
