package srb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// TestLongErrorMessageTruncatedOnWire is the regression for the framing
// asymmetry where writeResponse emitted err.Error() of any length while
// readResponse rejected msgLen > maxMsgLen: one verbose server error would
// poison the stream for every later response. The writer must truncate.
func TestLongErrorMessageTruncatedOnWire(t *testing.T) {
	long := strings.Repeat("e", maxMsgLen+1234)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResponse(bw, &response{seq: 9, status: statusIO, msg: long}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("reader rejected writer's own frame: %v", err)
	}
	if len(resp.msg) != maxMsgLen {
		t.Fatalf("msg length on wire = %d, want truncation to %d", len(resp.msg), maxMsgLen)
	}
	if resp.msg != long[:maxMsgLen] {
		t.Fatal("truncated msg is not a prefix of the original")
	}
}

// TestLongErrorMessageEndToEnd drives the same asymmetry through a live
// server: a status error whose message exceeds maxMsgLen must come back as
// a readable status error, and the connection must stay usable.
func TestLongErrorMessageEndToEnd(t *testing.T) {
	_, conn := startPair(t)
	// A deep, long path produces a long ErrNotFound message via the
	// server's error formatting; any status reply works for the check.
	deep := "/" + strings.Repeat("d", 2000) + "/" + strings.Repeat("e", 2000) + "/x"
	if _, err := conn.Stat(deep); err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("connection unusable after status error: %v", err)
	}
}

// TestOversizedPathRejectedClientSide is the regression for the mirrored
// request-side asymmetry: writeRequest used to emit arbitrarily long paths
// that readRequest rejected, killing the connection. The client must fail
// the call with ErrInvalid before anything reaches the wire.
func TestOversizedPathRejectedClientSide(t *testing.T) {
	_, conn := startPair(t)
	long := "/" + strings.Repeat("p", maxPathLen)
	if _, err := conn.Stat(long); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized path error = %v, want ErrInvalid", err)
	}
	if err := conn.Mkdir(long); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized mkdir error = %v, want ErrInvalid", err)
	}
	// The frame never went out; the connection is still healthy.
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after rejected path: %v", err)
	}
}

// TestSetAttrNulKeyRejected: attribute frames carry key\0value, so a key
// containing NUL would silently shift the split point and corrupt both
// halves. The client must reject it up front.
func TestSetAttrNulKeyRejected(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/attrfile", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := conn.SetAttr("/attrfile", "bad\x00key", "v"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("NUL key error = %v, want ErrInvalid", err)
	}
	// NUL in the value is legal — only the key delimits.
	if err := conn.SetAttr("/attrfile", "ok", "va\x00lue"); err != nil {
		t.Fatalf("NUL in value rejected: %v", err)
	}
	got, err := conn.GetAttr("/attrfile", "ok")
	if err != nil || got != "va\x00lue" {
		t.Fatalf("GetAttr = %q, %v", got, err)
	}
}

func TestEncodeWritevMergesContiguousRuns(t *testing.T) {
	segs := []writeSeg{
		{off: 0, data: []byte("aaaa")},
		{off: 4, data: []byte("bbbb")}, // contiguous: merges into run 1
		{off: 100, data: []byte("cc")}, // gap: new run
		{off: 102, data: []byte("dd")}, // contiguous again
		{off: 90, data: []byte("ee")},  // backward jump: new run
	}
	payload := sentWritev(t, segs)
	got, err := decodeWritev(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []writeSeg{
		{off: 0, data: []byte("aaaabbbb")},
		{off: 100, data: []byte("ccdd")},
		{off: 90, data: []byte("ee")},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].off != want[i].off || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("run %d = {%d, %q}, want {%d, %q}",
				i, got[i].off, got[i].data, want[i].off, want[i].data)
		}
	}
}

func TestDecodeWritevMalformed(t *testing.T) {
	// A frame claiming one 4-byte segment but carrying only 2 payload bytes.
	short := make([]byte, vecHdrSize+vecEntrySize+2)
	binary.BigEndian.PutUint32(short[0:], 1)
	binary.BigEndian.PutUint64(short[vecHdrSize:], 0)
	binary.BigEndian.PutUint32(short[vecHdrSize+8:], 4)

	// A segment with a negative offset.
	negOff := make([]byte, vecHdrSize+vecEntrySize+1)
	binary.BigEndian.PutUint32(negOff[0:], 1)
	binary.BigEndian.PutUint64(negOff[vecHdrSize:], ^uint64(0))
	binary.BigEndian.PutUint32(negOff[vecHdrSize+8:], 1)

	// A count far larger than the frame could hold.
	hugeCount := make([]byte, vecHdrSize)
	binary.BigEndian.PutUint32(hugeCount[0:], 1<<30)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty frame", nil},
		{"truncated header", []byte{0, 0}},
		{"zero segments", []byte{0, 0, 0, 0}},
		{"count overflows frame", hugeCount},
		{"payload shorter than table claims", short},
		{"negative offset", negOff},
	}
	for _, c := range cases {
		if _, err := decodeWritev(c.b, nil); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestWritevRoundTripUnmerged: runs that are not contiguous survive the
// codec byte-for-byte in order.
func TestWritevRoundTripUnmerged(t *testing.T) {
	segs := []writeSeg{
		{off: 1 << 40, data: bytes.Repeat([]byte{7}, 3000)},
		{off: 5, data: []byte{1}},
		{off: 0, data: []byte{2, 3}},
	}
	payload := sentWritev(t, segs)
	got, err := decodeWritev(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d runs, want 3", len(got))
	}
	for i := range segs {
		if got[i].off != segs[i].off || !bytes.Equal(got[i].data, segs[i].data) {
			t.Fatalf("run %d mismatch", i)
		}
	}
}

// TestNegativeOffsetRejectedByServer: offsets are absolute on every data op,
// so a negative one names no bytes. A raw one-entry opWritev/opReadv
// carrying one gets an ErrInvalid status, the file is untouched, and the
// connection stays up.
func TestNegativeOffsetRejectedByServer(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/neg", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	_, err = conn.call(writevReq(0, f.handle, -1, []byte("XX")), nil)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("opWritev at offset -1 = %v, want ErrInvalid", err)
	}
	buf := make([]byte, 5)
	_, err = conn.call(readvReq(0, f.handle, -1, 5), [][]byte{buf})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("opReadv at offset -1 = %v, want ErrInvalid", err)
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after rejected offsets: %v", err)
	}
	if n, err := f.ReadAt(buf, 0); n != 5 || string(buf) != "hello" {
		t.Fatalf("content after rejected write = %q (%d, %v), want %q", buf[:n], n, err, "hello")
	}
}

// TestNegativeOffsetRejectedClientSide: ReadAt and WriteAt refuse a negative
// offset with ErrInvalid before anything reaches the wire, as WriteAtVec
// and ReadAtVec do.
func TestNegativeOffsetRejectedClientSide(t *testing.T) {
	conn, f := scriptedFile(t, func(req *request) *response {
		if req.op == opReadv || req.op == opWritev {
			t.Errorf("op %s with a negative offset reached the server", opName(req.op))
		}
		return &response{}
	})
	if _, err := f.ReadAt(make([]byte, 5), -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("ReadAt at -1 = %v, want ErrInvalid", err)
	}
	if _, err := f.WriteAt([]byte("XX"), -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("WriteAt at -1 = %v, want ErrInvalid", err)
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after rejected offsets: %v", err)
	}
}

// TestRetiredOpcodesRefused: opcodes 5 and 6, the scalar read and write
// before a contiguous transfer became a one-entry vector, draw an
// ErrInvalid status reply like any unknown opcode, and the connection
// stays up.
func TestRetiredOpcodesRefused(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/retired", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []uint8{5, 6} {
		_, err := conn.call(&request{op: op, handle: f.handle, length: 5, data: []byte("hello")}, nil)
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("opcode %d = %v, want ErrInvalid", op, err)
		}
		if _, err := conn.Ping(); err != nil {
			t.Fatalf("ping after opcode %d: %v", op, err)
		}
	}
	if n, err := f.WriteAt([]byte("hello"), 0); n != 5 || err != nil {
		t.Fatalf("write after retired opcodes = %d, %v", n, err)
	}
}
