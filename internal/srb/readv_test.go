package srb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestDecodeReadvMalformed pins the argument-error classification of the
// vectored-read parser: every malformed vector is an ErrInvalid status
// reply, never connection damage.
func TestDecodeReadvMalformed(t *testing.T) {
	// A frame whose table is shorter than the count claims.
	truncTable := make([]byte, vecHdrSize+vecEntrySize-1)
	binary.BigEndian.PutUint32(truncTable[0:], 1)

	// A range with a negative offset.
	negOff := make([]byte, vecHdrSize+vecEntrySize)
	binary.BigEndian.PutUint32(negOff[0:], 1)
	binary.BigEndian.PutUint64(negOff[vecHdrSize:], ^uint64(0))
	binary.BigEndian.PutUint32(negOff[vecHdrSize+8:], 1)

	// A zero-length range.
	emptyRange := make([]byte, vecHdrSize+vecEntrySize)
	binary.BigEndian.PutUint32(emptyRange[0:], 1)

	// A count far larger than the frame could hold.
	hugeCount := make([]byte, vecHdrSize)
	binary.BigEndian.PutUint32(hugeCount[0:], 1<<30)

	// Trailing garbage after a well-formed table.
	trailing, _ := encodeTable(nil, []readSeg{{off: 0, n: 1}})
	trailing = append(bytes.Clone(trailing), 0xFF)

	// Two ranges that together request more than MaxChunk of reply.
	overChunk := make([]byte, vecHdrSize+2*vecEntrySize)
	binary.BigEndian.PutUint32(overChunk[0:], 2)
	binary.BigEndian.PutUint64(overChunk[vecHdrSize:], 0)
	binary.BigEndian.PutUint32(overChunk[vecHdrSize+8:], MaxChunk)
	binary.BigEndian.PutUint64(overChunk[vecHdrSize+vecEntrySize:], 1<<30)
	binary.BigEndian.PutUint32(overChunk[vecHdrSize+vecEntrySize+8:], 1)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty frame", nil},
		{"truncated header", []byte{0, 0}},
		{"zero ranges", []byte{0, 0, 0, 0}},
		{"count overflows frame", hugeCount},
		{"table truncated", truncTable},
		{"negative offset", negOff},
		{"empty range", emptyRange},
		{"trailing garbage", trailing},
		{"reply exceeds MaxChunk", overChunk},
	}
	for _, c := range cases {
		if _, err := decodeReadv(c.b, nil); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestReadvRoundTripUnmerged: ranges that are not contiguous survive the
// codec in order; adjacent ranges merge into one run.
func TestReadvRoundTripUnmerged(t *testing.T) {
	segs := []readSeg{
		{off: 1 << 40, n: 3000},
		{off: 5, n: 1},
		{off: 6, n: 2}, // contiguous with the previous: merges
		{off: 0, n: 2},
	}
	payload, pooled := encodeTable(nil, segs)
	defer putBuf(pooled)
	got, err := decodeReadv(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []readSeg{{off: 1 << 40, n: 3000}, {off: 5, n: 3}, {off: 0, n: 2}}
	if len(got) != len(want) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadvMalformedOverWire: a hand-built malformed vector drawing an
// ErrInvalid status reply must leave the connection usable. A length word
// other than the sum of the ranges is malformed too: it is what the tenant
// byte bucket charges.
func TestReadvMalformedOverWire(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/rv.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	stating := func(length int64) *request {
		req := readvReq(0, f.handle, 0, 5)
		req.length = length
		return req
	}
	for _, tc := range []struct {
		name string
		req  *request
	}{
		{"empty vector", &request{op: opReadv, handle: f.handle, data: []byte{0, 0, 0, 0}}},
		{"length 0 for 5 bytes", stating(0)},
		{"length 4 for 5 bytes", stating(4)},
		{"length 6 for 5 bytes", stating(6)},
		{"length -5 for 5 bytes", stating(-5)},
	} {
		resp, err := conn.call(tc.req, [][]byte{make([]byte, 5)})
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: resp=%+v err=%v, want ErrInvalid", tc.name, resp, err)
		}
		if _, err := conn.Ping(); err != nil {
			t.Fatalf("connection damaged by %s: %v", tc.name, err)
		}
	}
}

// TestReadAtVec covers the vectored-read client path end to end: scattered
// ranges gather in one round trip, EOF cuts the reply at the first short
// range, and write-only handles are rejected.
func TestReadAtVec(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/rv.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 10000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}

	t.Run("scattered", func(t *testing.T) {
		segs := []ReadSeg{
			{Off: 0, Buf: make([]byte, 100)},
			{Off: 4000, Buf: make([]byte, 256)},
			{Off: 9900, Buf: make([]byte, 100)}, // exactly to EOF
		}
		n, err := f.ReadAtVec(segs)
		if err != nil || n != 456 {
			t.Fatalf("ReadAtVec = %d, %v", n, err)
		}
		for _, s := range segs {
			if !bytes.Equal(s.Buf, content[s.Off:s.Off+int64(len(s.Buf))]) {
				t.Fatalf("range at %d corrupted", s.Off)
			}
		}
	})

	t.Run("empty ranges skipped", func(t *testing.T) {
		segs := []ReadSeg{
			{Off: 10, Buf: nil},
			{Off: 20, Buf: make([]byte, 5)},
		}
		n, err := f.ReadAtVec(segs)
		if err != nil || n != 5 {
			t.Fatalf("ReadAtVec = %d, %v", n, err)
		}
	})

	t.Run("eof mid-vector", func(t *testing.T) {
		segs := []ReadSeg{
			{Off: 9000, Buf: make([]byte, 500)},
			{Off: 9800, Buf: make([]byte, 500)}, // 300 short of its want
			{Off: 0, Buf: make([]byte, 10)},     // never reached
		}
		n, err := f.ReadAtVec(segs)
		if err != io.EOF || n != 700 {
			t.Fatalf("ReadAtVec = %d, %v, want 700, io.EOF", n, err)
		}
		if !bytes.Equal(segs[1].Buf[:200], content[9800:]) {
			t.Fatal("partial range bytes wrong")
		}
		for _, b := range segs[2].Buf {
			if b != 0 {
				t.Fatal("range after the short one was filled")
			}
		}
	})

	t.Run("wholly past eof", func(t *testing.T) {
		n, err := f.ReadAtVec([]ReadSeg{{Off: 50000, Buf: make([]byte, 10)}})
		if err != io.EOF || n != 0 {
			t.Fatalf("ReadAtVec past EOF = %d, %v", n, err)
		}
	})

	t.Run("negative offset", func(t *testing.T) {
		_, err := f.ReadAtVec([]ReadSeg{{Off: -1, Buf: make([]byte, 1)}})
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("negative offset err = %v", err)
		}
	})

	t.Run("write-only handle", func(t *testing.T) {
		wf, err := conn.Open("/wr.dat", O_WRONLY|O_CREATE, "")
		if err != nil {
			t.Fatal(err)
		}
		_, err = wf.ReadAtVec([]ReadSeg{{Off: 0, Buf: make([]byte, 1)}})
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("write-only readv err = %v", err)
		}
	})
}

// TestReadAtVecLargeRange: a single range larger than MaxChunk splits
// across frames and reassembles intact.
func TestReadAtVecLargeRange(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/big.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, MaxChunk+4096)
	for i := range content {
		content[i] = byte(i * 7 % 253)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(content))
	n, err := f.ReadAtVec([]ReadSeg{{Off: 0, Buf: buf}})
	if err != nil || n != len(content) {
		t.Fatalf("ReadAtVec = %d, %v", n, err)
	}
	if !bytes.Equal(buf, content) {
		t.Fatal("large range corrupted across frame split")
	}
}

// TestReadvPoolBalance: the readv client and server paths release every
// pooled buffer they take, including on the EOF and error paths.
func TestReadvPoolBalance(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/pb.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{9}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	// Settle in-flight pool traffic from setup before diffing.
	gets0, puts0 := payloadPool.Balance()
	for i := 0; i < 10; i++ {
		if _, err := f.ReadAtVec([]ReadSeg{{Off: 0, Buf: make([]byte, 100)}, {Off: 500, Buf: make([]byte, 100)}}); err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAtVec([]ReadSeg{{Off: 900, Buf: make([]byte, 500)}}); err != io.EOF || n != 100 {
			t.Fatalf("eof read = %d, %v", n, err)
		}
		if _, err := f.ReadAtVec([]ReadSeg{{Off: -3, Buf: make([]byte, 10)}}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("invalid read err = %v", err)
		}
	}
	if gets, puts := poolDeltas(gets0, puts0); gets != puts {
		t.Fatalf("pool imbalance across readv paths: %d gets, %d puts", gets, puts)
	}
}
