package srb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"semplar/internal/storage"
)

// packWritev is the reference opWritev payload: the segment table followed
// by every segment's bytes, packed into one buffer. Tests compare the
// client's sender, which sends the segments from the caller's buffers,
// against it, and hand it to the server directly.
func packWritev(segs []writeSeg) []byte {
	type run struct {
		off int64
		n   int
	}
	var runs []run
	var payload []byte
	for _, s := range segs {
		payload = append(payload, s.data...)
		if k := len(runs) - 1; k >= 0 && runs[k].off+int64(runs[k].n) == s.off {
			runs[k].n += len(s.data)
			continue
		}
		runs = append(runs, run{off: s.off, n: len(s.data)})
	}
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(runs)))
	for _, r := range runs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.off))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.n))
	}
	return append(buf, payload...)
}

// readvReq is a one-range opReadv request, as ReadAt sends it: its table
// and, in length, the bytes it asks for.
func readvReq(seq uint32, handle int32, off int64, n int) *request {
	table, _ := encodeTable(make([]byte, oneEntryTable), []readSeg{{off: off, n: n}})
	return &request{op: opReadv, seq: seq, handle: handle, length: int64(n), data: table}
}

// writevReq is a one-segment opWritev request with a packed payload.
func writevReq(seq uint32, handle int32, off int64, data []byte) *request {
	return &request{op: opWritev, seq: seq, handle: handle, data: packWritev([]writeSeg{{off: off, data: data}})}
}

// writevFrame is the opWritev request frame the client sends for segs,
// written through a small bufio.Writer so segments both coalesce in the
// buffer and bypass it.
func writevFrame(t testing.TB, segs []writeSeg) []byte {
	t.Helper()
	table, pooled := encodeTable(nil, segs)
	defer putBuf(pooled)
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 4<<10)
	if err := writeRequest(bw, &request{op: opWritev, seq: 9, handle: 3, data: table}, segs...); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sentWritev is the opWritev payload as the server parses it off the
// client's frame.
func sentWritev(t testing.TB, segs []writeSeg) []byte {
	t.Helper()
	req, err := readRequest(bufio.NewReader(bytes.NewReader(writevFrame(t, segs))))
	if err != nil {
		t.Fatal(err)
	}
	return req.data
}

// packedFrame is the same request with the reference packed payload.
func packedFrame(t testing.TB, segs []writeSeg) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := writeRequest(&out, &request{op: opWritev, seq: 9, handle: 3, data: packWritev(segs)}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// readResponse parses one whole response frame, payload into a pooled
// resp.data: the receive path of a call that names no destination.
func readResponse(r io.Reader) (*response, error) {
	br, ok := r.(*bufio.Reader)
	body := io.Reader(br)
	if !ok {
		// A header-sized buffer makes Peek read no byte past the header,
		// and the body is then read from r itself: an unbuffered caller's
		// stream stops exactly at the end of the frame.
		br = bufio.NewReaderSize(r, respHeaderSize)
		body = r
	}
	resp, msgLen, err := readResponseHeader(br)
	if err != nil {
		return nil, err
	}
	if resp.msg, resp.data, err = readResponseBody(body, msgLen, resp.dataLen, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TestZeroCopyWritevFrameMatchesPacked: for random segment lists, with
// adjacent segments that merge in the table, empty segments, and segments
// larger than the writer's buffer, the frame sent from the caller's buffers
// is byte-identical to the old packed encoding.
func TestZeroCopyWritevFrameMatchesPacked(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var segs []writeSeg
		off := int64(rng.Intn(1 << 20))
		for i := rng.Intn(40) + 1; i > 0; i-- {
			n := rng.Intn(3000)
			if rng.Intn(10) == 0 {
				n = 4<<10 + rng.Intn(20<<10) // bigger than the writer's buffer
			}
			data := make([]byte, n)
			rng.Read(data)
			segs = append(segs, writeSeg{off: off, data: data})
			off += int64(n)
			if rng.Intn(2) == 0 { // else adjacent: the next segment merges
				off += int64(rng.Intn(5000)) - 2500
				off = max(off, 0)
			}
		}
		if got, want := writevFrame(t, segs), packedFrame(t, segs); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %d-byte frame differs from the %d-byte packed encoding", seed, len(got), len(want))
		}
	}
}

// readReplyLen is how many payload bytes a data request asks for.
func readReplyLen(t *testing.T, req *request) int {
	segs, err := decodeReadv(req.data, nil)
	if err != nil {
		t.Errorf("scripted server: %v", err)
		return 0
	}
	n := 0
	for _, s := range segs {
		n += s.n
	}
	return n
}

// dataCalls are the zero-copy receive paths, each a fresh 1 MiB read
// through a different File method.
var dataCalls = []struct {
	name string
	read func(f *File, p []byte) (int, error)
}{
	{"ReadAt", func(f *File, p []byte) (int, error) { return f.ReadAt(p, 0) }},
	{"ReadAtVec", func(f *File, p []byte) (int, error) {
		h := len(p) / 2
		return f.ReadAtVec([]ReadSeg{{Off: 0, Buf: p[:h]}, {Off: int64(h) + 4096, Buf: p[h:]}})
	}},
}

// scriptedFile opens a handle on a scripted server over net.Pipe.
func scriptedFile(t *testing.T, fn func(req *request) *response) (*Conn, *File) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, fn)
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	f, err := conn.Open("/f", O_RDWR, "")
	if err != nil {
		t.Fatal(err)
	}
	return conn, f
}

// TestZeroCopyReplyLongerThanAsked: a reply carrying more bytes than the
// read asked for is ErrProtocol and cuts the connection, rather than
// dropping the extra bytes and trusting a stream that answered a
// different question.
func TestZeroCopyReplyLongerThanAsked(t *testing.T) {
	for _, dc := range dataCalls {
		t.Run(dc.name, func(t *testing.T) {
			conn, f := scriptedFile(t, func(req *request) *response {
				return &response{data: make([]byte, readReplyLen(t, req)+1)}
			})
			n, err := dc.read(f, make([]byte, 1<<20))
			if !errors.Is(err, ErrProtocol) || n != 0 {
				t.Fatalf("over-long reply: %d, %v; want 0, ErrProtocol", n, err)
			}
			if _, err := conn.Ping(); err == nil {
				t.Fatal("connection survived an over-long reply")
			}
		})
	}
}

// stallingConn serves the handshake and open, then answers every data
// request with a header promising the whole payload, and sends only the
// first half of it (or, with half false, nothing at all). It reports on
// sent once those bytes are consumed: net.Pipe writes return only then.
// Closing rest sends the remaining half of the last reply, if the client
// is still there to read it.
func stallingConn(t *testing.T, c net.Conn, half bool, sent chan<- struct{}, rest <-chan struct{}) {
	go func() {
		defer c.Close()
		br, bw := bufio.NewReader(c), bufio.NewWriter(c)
		var frame bytes.Buffer
		for {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			switch req.op {
			case opConnect, opOpen:
				if writeResponse(bw, &response{seq: req.seq, value: protoVer}) != nil || bw.Flush() != nil {
					return
				}
				continue
			}
			n := readReplyLen(t, req)
			frame.Reset()
			if err := writeResponse(&frame, &response{seq: req.seq, data: bytes.Repeat([]byte{0x5A}, n)}); err != nil {
				t.Error(err)
				return
			}
			cut := 0
			if half {
				cut = respHeaderSize + n/2
				if _, err := c.Write(frame.Bytes()[:cut]); err != nil {
					return
				}
			}
			sent <- struct{}{}
			go func(tail []byte) {
				<-rest
				_, _ = c.Write(tail) // the client has cut the connection; nobody reads the rest
			}(bytes.Clone(frame.Bytes()[cut:]))
		}
	}()
}

// TestZeroCopyStalledReplyTimesOut: the deadline passes while a reply is
// stalled after its header, with half its payload already in the caller's
// buffer. The watchdog still cuts the connection, the call reports
// ErrTimeout within the deadline plus slack, and the destination is not
// written after the call returns, even once the rest of the reply is sent.
func TestZeroCopyStalledReplyTimesOut(t *testing.T) {
	const deadline = 50 * time.Millisecond
	for _, dc := range dataCalls {
		t.Run(dc.name, func(t *testing.T) {
			cEnd, sEnd := net.Pipe()
			sent, rest := make(chan struct{}, 1), make(chan struct{})
			stallingConn(t, sEnd, true, sent, rest)
			conn, err := NewConn(cEnd, "tester")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			f, err := conn.Open("/f", O_RDWR, "")
			if err != nil {
				t.Fatal(err)
			}
			conn.SetOpTimeout(deadline)
			p := make([]byte, 1<<20)
			start := time.Now()
			n, err := dc.read(f, p)
			if took := time.Since(start); took > deadline+2*time.Second {
				t.Fatalf("stalled call returned after %v, deadline %v", took, deadline)
			}
			if !errors.Is(err, ErrTimeout) || n != 0 {
				t.Fatalf("stalled reply: %d, %v; want 0, ErrTimeout", n, err)
			}
			for i := range p {
				p[i] = 0xEE
			}
			close(rest)
			if _, err := conn.Ping(); !errors.Is(err, ErrTransport) {
				t.Fatalf("ping after the watchdog fired = %v, want the cut connection's ErrTransport", err)
			}
			time.Sleep(10 * time.Millisecond)
			if !bytes.Equal(p, bytes.Repeat([]byte{0xEE}, len(p))) {
				t.Fatal("destination written after the call returned")
			}
		})
	}
}

// TestZeroCopyCloseDuringRead: Close while a data call waits for its
// reply's header, or while readLoop is reading its payload into the
// caller's buffer, completes the call with ErrConnClosed.
func TestZeroCopyCloseDuringRead(t *testing.T) {
	for _, dc := range dataCalls {
		for _, half := range []bool{false, true} {
			name := dc.name + "/before header"
			if half {
				name = dc.name + "/mid payload"
			}
			t.Run(name, func(t *testing.T) {
				cEnd, sEnd := net.Pipe()
				sent, rest := make(chan struct{}, 1), make(chan struct{})
				defer close(rest)
				stallingConn(t, sEnd, half, sent, rest)
				conn, err := NewConn(cEnd, "tester")
				if err != nil {
					t.Fatal(err)
				}
				f, err := conn.Open("/f", O_RDWR, "")
				if err != nil {
					t.Fatal(err)
				}
				type result struct {
					n   int
					err error
				}
				done := make(chan result, 1)
				go func() {
					n, err := dc.read(f, make([]byte, 1<<20))
					done <- result{n, err}
				}()
				<-sent
				conn.Close()
				select {
				case r := <-done:
					if !errors.Is(r.err, ErrConnClosed) || r.n != 0 {
						t.Fatalf("read cut by Close: %d, %v; want 0, ErrConnClosed", r.n, r.err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not complete the in-flight read")
				}
			})
		}
	}
}

// TestZeroCopyDestinationUntouchedAfterReturn races readLoop against the
// callers it writes for: concurrent reads on one connection, each
// overwriting its buffer the moment its call returns, while Close cuts the
// connection under them. Under -race, a payload byte landing in a buffer
// after its call returned is a reported race.
func TestZeroCopyDestinationUntouchedAfterReturn(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	conn := connectTo(t, srv)
	f, err := conn.Open("/race", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 256<<10), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := make([]byte, 64<<10)
			for {
				var err error
				if g%2 == 0 {
					_, err = f.ReadAt(p, int64(g)<<14)
				} else {
					_, err = f.ReadAtVec([]ReadSeg{{Off: 0, Buf: p[:1000]}, {Off: 5000, Buf: p[1000:]}})
				}
				for i := range p {
					p[i] = byte(g)
				}
				if err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	wg.Wait()
}

// TestZeroCopyShortReplies: a short reply fills exactly its prefix of the
// caller's buffer and reports that prefix count, with io.EOF where the
// method's contract says so, including a chunked ReadAt whose second chunk
// comes back short; bytes past the prefix are left as they were.
func TestZeroCopyShortReplies(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/short", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	size := MaxChunk + 100
	content := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(content)
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	sentinel := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	check := func(t *testing.T, p []byte, prefix []byte) {
		t.Helper()
		if !bytes.Equal(p[:len(prefix)], prefix) {
			t.Fatal("prefix bytes wrong")
		}
		if !bytes.Equal(p[len(prefix):], sentinel(len(p)-len(prefix))) {
			t.Fatal("bytes past the prefix were written")
		}
	}

	t.Run("ReadAt across chunks", func(t *testing.T) {
		p := sentinel(MaxChunk + 1000)
		n, err := f.ReadAt(p, 0)
		if n != size || err != io.EOF {
			t.Fatalf("ReadAt = %d, %v; want %d, io.EOF", n, err, size)
		}
		check(t, p, content)
	})
	t.Run("ReadAtVec", func(t *testing.T) {
		segs := []ReadSeg{{Off: 10, Buf: sentinel(90)}, {Off: int64(size) - 50, Buf: sentinel(80)}, {Off: 0, Buf: sentinel(10)}}
		n, err := f.ReadAtVec(segs)
		if n != 140 || err != io.EOF {
			t.Fatalf("ReadAtVec = %d, %v; want 140, io.EOF", n, err)
		}
		check(t, segs[0].Buf, content[10:100])
		check(t, segs[1].Buf, content[size-50:])
		check(t, segs[2].Buf, nil)
	})
}

// TestZeroCopyMixedWithMetadata: metadata replies (pooled payload) and data
// replies (payload into the caller's buffer) interleave on one pipelined
// connection, and each lands where its own call wants it.
func TestZeroCopyMixedWithMetadata(t *testing.T) {
	_, conn := startPair(t)
	if err := conn.Mkdir("/m"); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Open("/m/f", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 128<<10)
	rand.New(rand.NewSource(2)).Read(content)
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetAttr("/m/f", "k", "v"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 4 {
				case 0:
					p := make([]byte, len(content))
					if n, err := f.ReadAt(p, 0); n != len(p) || err != nil || !bytes.Equal(p, content) {
						t.Errorf("ReadAt = %d, %v", n, err)
					}
				case 1:
					if fi, err := conn.Stat("/m/f"); err != nil || fi.Size != int64(len(content)) {
						t.Errorf("Stat = %+v, %v", fi, err)
					}
				case 2:
					if ls, err := conn.List("/m"); err != nil || len(ls) != 1 || ls[0].Path != "/m/f" {
						t.Errorf("List = %v, %v", ls, err)
					}
				case 3:
					if v, err := conn.GetAttr("/m/f", "k"); err != nil || v != "v" {
						t.Errorf("GetAttr = %q, %v", v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestZeroCopyReadTakesNoPoolBuffer: a 1 MiB read takes no payload buffer
// from the pool for its reply, which goes straight into the caller's
// slice. The server is scripted, so the only pooled buffer is the
// scripted parser's copy of the request's one-entry range table (the
// client builds that table on its stack).
func TestZeroCopyReadTakesNoPoolBuffer(t *testing.T) {
	content := bytes.Repeat([]byte{7}, 1<<20)
	_, f := scriptedFile(t, func(req *request) *response {
		return &response{data: content[:req.length]}
	})
	p := make([]byte, len(content))
	gets0, _ := payloadPool.Balance()
	n, err := f.ReadAt(p, 0)
	gets, _ := payloadPool.Balance()
	if n != len(p) || err != nil || !bytes.Equal(p, content) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if gets-gets0 != 1 {
		t.Fatalf("a 1 MiB read took %d pooled buffers, want 1 (the scripted parser's copy of its range table)", gets-gets0)
	}
}
