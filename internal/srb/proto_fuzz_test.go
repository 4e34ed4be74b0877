package srb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sampleWritev is the payload of the sample request: a one-segment write.
var sampleWritev = packWritev([]writeSeg{{off: 1 << 20, data: []byte("hello")}})

// sampleRequestBytes encodes a representative request for seeding.
func sampleRequestBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := writeRequest(&buf, &request{
		op:     opWritev,
		seq:    7,
		handle: 3,
		flags:  O_RDWR | O_CREATE,
		length: 5,
		path:   "/col/a.dat",
		data:   sampleWritev,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleResponseBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := writeResponse(&buf, &response{
		seq:    7,
		status: statusIO,
		value:  42,
		msg:    "disk on fire",
		data:   []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeaderRoundTrip writes a request and a response with a distinct
// nonzero value in every header field and reads them back. A field moved
// in the writer or the parser alone shows here as a wrong value, where over
// a live connection it would desynchronize the stream.
func TestHeaderRoundTrip(t *testing.T) {
	req := &request{op: opWritev, seq: 0x01020304, handle: 0x05060708, flags: 0x090a0b0c,
		length: 0x0d0e0f1011121314, path: "/hdr/trip", data: []byte{0x15, 0x16, 0x17}}
	resp := &response{seq: 0x18191a1b, status: statusQuotaExceeded, value: 0x1c1d1e1f20212223,
		msg: "quota", data: []byte{0x24, 0x25}, dataLen: 2}
	cases := []struct {
		name  string
		want  any
		write func(frameWriter) error
		read  func(*bufio.Reader) (any, error)
	}{
		{"request", req,
			func(w frameWriter) error { return writeRequest(w, req) },
			func(r *bufio.Reader) (any, error) { return readRequest(r) }},
		{"response", resp,
			func(w frameWriter) error { return writeResponse(w, resp) },
			func(r *bufio.Reader) (any, error) {
				got, msgLen, err := readResponseHeader(r)
				if err != nil {
					return nil, err
				}
				got.msg, got.data, err = readResponseBody(r, msgLen, got.dataLen, nil)
				return &got, err
			}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		got, err := c.read(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("%s: read: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s round trip:\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}

// FuzzReadRequest feeds arbitrary bytes to the server-side request parser.
// It must never panic or over-allocate; any accepted request must satisfy
// the protocol bounds and survive an encode/re-parse round trip untouched.
func FuzzReadRequest(f *testing.F) {
	valid := sampleRequestBytes(f)
	f.Add(valid)
	f.Add(valid[:reqHeaderSize-1]) // truncated header

	badMagic := bytes.Clone(valid)
	badMagic[0] = 0xFF
	f.Add(badMagic)

	badVersion := bytes.Clone(valid)
	badVersion[2] = 9
	f.Add(badVersion)

	hugePath := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugePath[32:], 1<<31)
	f.Add(hugePath)

	hugeData := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugeData[36:], MaxChunk+1)
	f.Add(hugeData)

	overData := bytes.Clone(valid) // one byte past a full one-segment write
	binary.BigEndian.PutUint32(overData[36:], maxReqData+1)
	f.Add(overData)

	// A setattr payload whose key smuggles a NUL: the frame parses fine,
	// but the key\0value split would land in the wrong place. The client
	// rejects such keys before encoding; this seed keeps the parser honest
	// about frames a non-conforming client could still send.
	var nulKey bytes.Buffer
	if err := writeRequest(&nulKey, &request{
		op: opSetAttr, seq: 8, path: "/col/a.dat",
		data: []byte("bad\x00key\x00value"),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(nulKey.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(req.path) > 4096 {
			t.Fatalf("accepted path of %d bytes, limit is 4096", len(req.path))
		}
		if len(req.data) > maxReqData {
			t.Fatalf("accepted payload of %d bytes, maxReqData is %d", len(req.data), maxReqData)
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, req); err != nil {
			t.Fatalf("re-encoding an accepted request failed: %v", err)
		}
		again, err := readRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-parsing a re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("request round trip changed the value:\n first: %+v\nsecond: %+v", req, again)
		}
	})
}

// FuzzReadResponse is the client-side mirror of FuzzReadRequest.
func FuzzReadResponse(f *testing.F) {
	valid := sampleResponseBytes(f)
	f.Add(valid)
	f.Add(valid[:respHeaderSize-1]) // truncated header

	badMagic := bytes.Clone(valid)
	badMagic[0] = 0xFF
	f.Add(badMagic)

	hugeMsg := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugeMsg[20:], 1<<31)
	f.Add(hugeMsg)

	hugeData := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugeData[24:], MaxChunk+1)
	f.Add(hugeData)

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := readResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(resp.msg) > 4096 {
			t.Fatalf("accepted message of %d bytes, limit is 4096", len(resp.msg))
		}
		if len(resp.data) > MaxChunk {
			t.Fatalf("accepted payload of %d bytes, MaxChunk is %d", len(resp.data), MaxChunk)
		}
		var buf bytes.Buffer
		if err := writeResponse(&buf, resp); err != nil {
			t.Fatalf("re-encoding an accepted response failed: %v", err)
		}
		again, err := readResponse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing a re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("response round trip changed the value:\n first: %+v\nsecond: %+v", resp, again)
		}
	})
}

// FuzzDecodeFileInfo covers the variable-length stat payload: decoding
// must never panic, and the accepted prefix must re-encode identically.
func FuzzDecodeFileInfo(f *testing.F) {
	f.Add(encodeFileInfo(&FileInfo{Path: "/a", IsDir: true, Size: 9, Modified: 123, Resource: "disk"}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		fi, rest, err := decodeFileInfo(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if got := encodeFileInfo(fi); !bytes.Equal(got, consumed) {
			t.Fatalf("re-encoding decoded FileInfo %+v differs from the consumed input", fi)
		}
	})
}

// FuzzWritevRoundTrip drives the vectored-write codec with arbitrary
// segment layouts, through the frame the client sends: writeRequest puts
// the table and then each segment on the wire, and the frame must match
// the packed reference encoding byte for byte. encodeTable merges
// contiguous runs, so the decoded vector is checked on the flattened
// offset→byte content, not the segment list.
func FuzzWritevRoundTrip(f *testing.F) {
	f.Add([]byte{0, 4, 4, 4, 100, 2})
	f.Add([]byte{10, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, layout []byte) {
		// Interpret the fuzz input as (offset, length) byte pairs.
		var segs []writeSeg
		next := byte(1)
		for i := 0; i+1 < len(layout) && len(segs) < 64; i += 2 {
			n := int(layout[i+1]) + 1
			data := make([]byte, n)
			for j := range data {
				data[j] = next
				next++
			}
			segs = append(segs, writeSeg{off: int64(layout[i]), data: data})
		}
		if len(segs) == 0 {
			return
		}
		if !bytes.Equal(writevFrame(t, segs), packedFrame(t, segs)) {
			t.Fatal("frame differs from the packed encoding")
		}
		got, err := decodeWritev(sentWritev(t, segs), nil)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		flatten := func(segs []writeSeg) map[int64]byte {
			m := make(map[int64]byte)
			for _, s := range segs {
				for j, b := range s.data {
					m[s.off+int64(j)] = b
				}
			}
			return m
		}
		want, have := flatten(segs), flatten(got)
		if len(want) != len(have) {
			t.Fatalf("flattened content covers %d offsets, want %d", len(have), len(want))
		}
		for off, b := range want {
			if have[off] != b {
				t.Fatalf("byte at offset %d = %d, want %d", off, have[off], b)
			}
		}
	})
}

// FuzzDecodeWritev feeds raw bytes to the vector parser: it must never
// panic, and every accepted vector must satisfy the protocol bounds.
func FuzzDecodeWritev(f *testing.F) {
	f.Add(packWritev([]writeSeg{{off: 0, data: []byte("abc")}, {off: 9, data: []byte("z")}}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		segs, err := decodeWritev(data, nil)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("decode error %v is not ErrInvalid", err)
			}
			return
		}
		total := 0
		for _, s := range segs {
			if s.off < 0 {
				t.Fatalf("accepted negative offset %d", s.off)
			}
			if len(s.data) > MaxChunk {
				t.Fatalf("accepted %d-byte segment, MaxChunk is %d", len(s.data), MaxChunk)
			}
			total += len(s.data)
		}
		// In production the whole frame is capped at MaxChunk by
		// readRequest; here only internal consistency can be checked.
		if total > len(data) {
			t.Fatalf("segments claim %d bytes from a %d-byte frame", total, len(data))
		}
	})
}

// FuzzReadvRoundTrip drives the vectored-read codec with arbitrary range
// layouts. encodeTable merges contiguous runs, so equality is checked on
// the flattened offset coverage (as a multiset), not the range list.
func FuzzReadvRoundTrip(f *testing.F) {
	f.Add([]byte{0, 4, 4, 4, 100, 2})
	f.Add([]byte{10, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, layout []byte) {
		// Interpret the fuzz input as (offset, length) byte pairs.
		var segs []readSeg
		for i := 0; i+1 < len(layout) && len(segs) < 64; i += 2 {
			segs = append(segs, readSeg{off: int64(layout[i]), n: int(layout[i+1]) + 1})
		}
		if len(segs) == 0 {
			return
		}
		payload, pooled := encodeTable(nil, segs)
		defer putBuf(pooled)
		got, err := decodeReadv(payload, nil)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		flatten := func(segs []readSeg) []int64 {
			var offs []int64
			for _, s := range segs {
				for j := int64(0); j < int64(s.n); j++ {
					offs = append(offs, s.off+j)
				}
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			return offs
		}
		want, have := flatten(segs), flatten(got)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("flattened coverage changed: %d offsets in, %d out", len(want), len(have))
		}
	})
}

// FuzzDecodeReadv feeds raw bytes to the vector parser: it must never
// panic, every rejection must classify as ErrInvalid, and every accepted
// vector must satisfy the protocol bounds.
func FuzzDecodeReadv(f *testing.F) {
	good, pooled := encodeTable(nil, []readSeg{{off: 0, n: 3}, {off: 9, n: 1}})
	f.Add(bytes.Clone(good))
	putBuf(pooled)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		segs, err := decodeReadv(data, nil)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("decode error %v is not ErrInvalid", err)
			}
			return
		}
		total := 0
		for _, s := range segs {
			if s.off < 0 {
				t.Fatalf("accepted negative offset %d", s.off)
			}
			if s.n < 1 {
				t.Fatalf("accepted empty range")
			}
			total += s.n
		}
		if total > MaxChunk {
			t.Fatalf("accepted a vector requesting %d bytes, MaxChunk is %d", total, MaxChunk)
		}
	})
}

// TestReadRequestMalformed pins the error classification for the seeded
// malformed inputs: framing damage is ErrProtocol, truncation is an I/O
// error — the server uses this split to decide logging vs disconnect.
func TestReadRequestMalformed(t *testing.T) {
	valid := sampleRequestBytes(t)

	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := []struct {
		name    string
		input   []byte
		wantErr error
		proto   bool
	}{
		{"truncated header", valid[:reqHeaderSize-1], io.ErrUnexpectedEOF, false},
		{"empty", nil, io.EOF, false},
		{"bad magic", mutate(func(b []byte) { b[0] = 0xFF }), ErrProtocol, true},
		{"bad version", mutate(func(b []byte) { b[2] = 9 }), ErrProtocol, true},
		{"oversized pathLen", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[32:], 1<<31) }), ErrProtocol, true},
		{"oversized dataLen", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[36:], maxReqData+1) }), ErrProtocol, true},
		{"truncated body", valid[:len(valid)-1], io.ErrUnexpectedEOF, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readRequest(bufio.NewReader(bytes.NewReader(tc.input)))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
			if tc.proto && !strings.Contains(err.Error(), "srb: protocol error") {
				t.Fatalf("protocol damage should report ErrProtocol, got %v", err)
			}
		})
	}

	t.Run("valid", func(t *testing.T) {
		req, err := readRequest(bufio.NewReader(bytes.NewReader(valid)))
		if err != nil {
			t.Fatal(err)
		}
		if req.op != opWritev || req.path != "/col/a.dat" || !bytes.Equal(req.data, sampleWritev) {
			t.Fatalf("parsed request mismatch: %+v", req)
		}
	})
}

// FuzzDecodeAuth feeds arbitrary bytes to the connect-handshake auth-blob
// parser. It must never panic; any accepted blob must satisfy the tenant
// bounds and survive an encode/re-parse round trip. Because the blob is
// length-framed inside the (already length-framed) connect body, a
// malformed blob must yield a status error, never a stream desync — that
// property is the parser returning an error instead of misreading.
func FuzzDecodeAuth(f *testing.F) {
	valid := encodeAuth("acme", bytes.Repeat([]byte{0xAB}, 32))
	f.Add(valid)
	f.Add(valid[:3])                        // truncated tenant length
	f.Add(valid[:7])                        // truncated proof length
	f.Add(append(bytes.Clone(valid), 0xEE)) // trailing garbage
	f.Add(encodeAuth("", nil))              // empty tenant ID
	f.Add(encodeAuth(strings.Repeat("x", maxTenantLen+1), nil))
	f.Add(encodeAuth("t", make([]byte, maxProofLen+1)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 'a'}) // tenant length beyond the blob

	f.Fuzz(func(t *testing.T, data []byte) {
		id, proof, err := decodeAuth(data)
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrInvalid) {
				t.Fatalf("decodeAuth error %v is neither ErrProtocol nor ErrInvalid", err)
			}
			return
		}
		if id == "" || len(id) > maxTenantLen {
			t.Fatalf("accepted tenant ID of %d bytes", len(id))
		}
		if len(proof) > maxProofLen {
			t.Fatalf("accepted proof of %d bytes", len(proof))
		}
		again := encodeAuth(id, proof)
		id2, proof2, err := decodeAuth(again)
		if err != nil {
			t.Fatalf("re-parsing a re-encoded auth blob failed: %v", err)
		}
		if id2 != id || !bytes.Equal(proof2, proof) {
			t.Fatalf("auth round trip changed the value: (%q, %x) -> (%q, %x)", id, proof, id2, proof2)
		}
	})
}

// FuzzAuthRoundTrip drives the encoder with arbitrary credentials and
// checks the decoder returns them exactly (within protocol bounds).
func FuzzAuthRoundTrip(f *testing.F) {
	f.Add("acme", []byte{1, 2, 3})
	f.Add("t", []byte{})
	f.Add(strings.Repeat("x", maxTenantLen), bytes.Repeat([]byte{9}, maxProofLen))

	f.Fuzz(func(t *testing.T, id string, proof []byte) {
		if id == "" || len(id) > maxTenantLen || len(proof) > maxProofLen {
			return // out of contract for the encoder
		}
		gotID, gotProof, err := decodeAuth(encodeAuth(id, proof))
		if err != nil {
			t.Fatalf("decodeAuth(encodeAuth(%q, %x)) = %v", id, proof, err)
		}
		if gotID != id || !bytes.Equal(gotProof, proof) {
			t.Fatalf("round trip changed the value: (%q, %x) -> (%q, %x)", id, proof, gotID, gotProof)
		}
	})
}
