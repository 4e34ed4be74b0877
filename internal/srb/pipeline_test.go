package srb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/storage"
)

// TestPipelinedCallsConcurrent hammers one connection from many goroutines:
// every call must come back with its own response (demux by tag), and under
// -race this doubles as the pipelining stress test.
func TestPipelinedCallsConcurrent(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/pipe", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const opsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blk := make([]byte, 64)
			for i := 0; i < opsPer; i++ {
				off := int64(w*opsPer+i) * 64
				for j := range blk {
					blk[j] = byte(w)
				}
				if _, err := f.WriteAt(blk, off); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				got := make([]byte, 64)
				if _, err := f.ReadAt(got, off); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if got[0] != byte(w) || got[63] != byte(w) {
					errs <- fmt.Errorf("worker %d read back %d at %d, want %d", w, got[0], off, w)
					return
				}
				if _, err := conn.Ping(); err != nil {
					errs <- fmt.Errorf("worker %d ping: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCallsPipelineOnOneConn is the regression gate for pipelining: n
// concurrent WriteAts on one connection must all reach the server before it
// sends its first response. A Conn.call that waited for each response before
// sending the next request would deliver one and then stall until the
// server's read deadline.
func TestCallsPipelineOnOneConn(t *testing.T) {
	const n = 8
	cEnd, sEnd := net.Pipe()
	held := make(chan int, 1)
	go func() {
		defer sEnd.Close()
		br := bufio.NewReader(sEnd)
		bw := bufio.NewWriter(sEnd)
		for _, v := range []int64{protoVer, 7} { // handshake, open
			req, err := readRequest(br)
			if err != nil {
				return
			}
			writeResponse(bw, &response{seq: req.seq, value: v})
			bw.Flush()
		}
		sEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
		var reqs []*request
		for len(reqs) < n {
			req, err := readRequest(br)
			if err != nil {
				break
			}
			reqs = append(reqs, req)
		}
		held <- len(reqs)
		for _, req := range reqs {
			writeResponse(bw, &response{seq: req.seq, value: int64(len(req.data))})
		}
		bw.Flush()
	}()
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/pipe", O_RDWR, "")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := f.WriteAt(make([]byte, 64), int64(i)*64)
			errs <- err
		}()
	}
	if got := <-held; got != n {
		t.Fatalf("server held %d requests before its first response, want %d: calls are serialised", got, n)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeqWraparound drives the tag counter across the uint32 boundary:
// calls keep completing, and tag 0 is never issued.
func TestSeqWraparound(t *testing.T) {
	_, conn := startPair(t)
	conn.mu.Lock()
	conn.seq = ^uint32(0) - 3
	conn.mu.Unlock()
	for i := 0; i < 10; i++ {
		if _, err := conn.Ping(); err != nil {
			t.Fatalf("ping %d across wraparound: %v", i, err)
		}
	}
	conn.mu.Lock()
	seq := conn.seq
	conn.mu.Unlock()
	// 3 tags before the boundary, 0 skipped, 7 after: the counter must
	// have wrapped to a small nonzero value.
	if seq == 0 || seq > 10 {
		t.Fatalf("seq after wraparound = %d", seq)
	}
}

// TestSeqWraparoundSkipsInFlightTags checks the collision path: a tag still
// pending when the counter wraps onto it must be skipped, not reissued.
func TestSeqWraparoundSkipsInFlightTags(t *testing.T) {
	seqs := make(chan uint32, 4)
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, func(req *request) *response {
		seqs <- req.seq
		return &response{}
	})
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Park fake in-flight calls on tags 1 and 2 and point the counter at
	// the wrap boundary; the next call must land on tag 3.
	conn.mu.Lock()
	conn.pending[1] = &pendingCall{done: make(chan struct{})}
	conn.pending[2] = &pendingCall{done: make(chan struct{})}
	conn.seq = ^uint32(0)
	conn.mu.Unlock()

	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := <-seqs; got != 3 {
		t.Fatalf("post-wrap tag = %d, want 3 (0 reserved, 1 and 2 in flight)", got)
	}
	conn.mu.Lock()
	delete(conn.pending, 1)
	delete(conn.pending, 2)
	conn.mu.Unlock()
}

// TestOutOfOrderResponses answers two pipelined calls in reverse order; the
// demux must route each response to the caller holding its tag.
func TestOutOfOrderResponses(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	firstSeen := make(chan struct{})
	go func() {
		br := bufio.NewReader(sEnd)
		bw := bufio.NewWriter(sEnd)
		req, err := readRequest(br) // handshake
		if err != nil {
			return
		}
		writeResponse(bw, &response{seq: req.seq, value: protoVer})
		bw.Flush()
		r1, err := readRequest(br)
		if err != nil {
			return
		}
		close(firstSeen)
		r2, err := readRequest(br)
		if err != nil {
			return
		}
		// Reverse order: the later request is answered first.
		writeResponse(bw, &response{seq: r2.seq, value: 222})
		writeResponse(bw, &response{seq: r1.seq, value: 111})
		bw.Flush()
	}()
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type result struct {
		v   int64
		err error
	}
	aCh := make(chan result, 1)
	go func() {
		v, err := conn.Ping()
		aCh <- result{v, err}
	}()
	<-firstSeen // guarantee call A's frame was read before B sends
	bV, bErr := conn.Ping()
	a := <-aCh
	if a.err != nil || bErr != nil {
		t.Fatalf("pings failed: %v / %v", a.err, bErr)
	}
	if a.v != 111 || bV != 222 {
		t.Fatalf("demuxed values = %d, %d; want 111, 222", a.v, bV)
	}
}

// TestUnknownTagSeversConn: a response carrying a tag nothing is waiting
// for means the stream's framing cannot be trusted; the connection must die
// with ErrProtocol.
func TestUnknownTagSeversConn(t *testing.T) {
	// scriptedConn always echoes req.seq, so script the damage by hand.
	cEnd, sEnd := net.Pipe()
	go func() {
		br := bufio.NewReader(sEnd)
		bw := bufio.NewWriter(sEnd)
		req, err := readRequest(br)
		if err != nil {
			return
		}
		writeResponse(bw, &response{seq: req.seq, value: protoVer})
		bw.Flush()
		if req, err = readRequest(br); err != nil {
			return
		}
		writeResponse(bw, &response{seq: req.seq + 1000})
		bw.Flush()
	}()
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Ping()
	if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrTransport) {
		t.Fatalf("unknown-tag error = %v, want ErrProtocol (or the transport tear it caused)", err)
	}
	// The connection is sticky-dead now.
	if _, err := conn.Ping(); err == nil {
		t.Fatal("call on severed connection succeeded")
	}
}

// TestTimeoutClassificationNotSticky is the regression for the old
// Conn.timedOut flag: after one op times out, later calls on the severed
// connection must classify as transport failures, not timeouts.
func TestTimeoutClassificationNotSticky(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, func(req *request) *response {
		if req.op == opFstat {
			return nil // stall exactly this op
		}
		return &response{}
	})
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/f", O_RDWR, "")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOpTimeout(50 * time.Millisecond)

	_, err = f.Stat()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled op error = %v, want ErrTimeout", err)
	}
	_, err = conn.Ping()
	if err == nil {
		t.Fatal("call on watchdog-severed connection succeeded")
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("later call misclassified as timeout: %v", err)
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("later call error = %v, want ErrTransport", err)
	}
}

// TestWatchdogLosesRaceToResponse pins the claim semantics that fix the
// watchdog-after-response race: once a response has settled the call, a
// late-firing timer must not expire it (and therefore never severs the
// connection). Expiring mid-payload is the other order: the outcome
// readLoop then delivers is dropped, and the call reports a timeout.
func TestWatchdogLosesRaceToResponse(t *testing.T) {
	pc := &pendingCall{done: make(chan struct{})}
	if !pc.claim() {
		t.Fatal("readLoop's claim rejected")
	}
	pc.finish(&response{value: 42}, nil)
	if pc.expire() {
		t.Fatal("the watchdog expired a settled call")
	}
	if pc.state.Load() != callDone || pc.err != nil || pc.resp.value != 42 {
		t.Fatalf("settled outcome overwritten: state %d, %+v, %v", pc.state.Load(), pc.resp, pc.err)
	}

	pc = &pendingCall{done: make(chan struct{})}
	if !pc.claim() {
		t.Fatal("readLoop's claim rejected")
	}
	if !pc.expire() {
		t.Fatal("the watchdog could not expire a call stalled mid-payload")
	}
	select {
	case <-pc.done:
		t.Fatal("the watchdog released a call readLoop still holds")
	default:
	}
	pc.finish(&response{value: 42}, nil)
	<-pc.done
	if pc.state.Load() != callExpired || pc.resp.value != 0 {
		t.Fatalf("expired call took readLoop's outcome: state %d, %+v", pc.state.Load(), pc.resp)
	}
}

// TestPipelinedTimeoutFailsWholeConn: when the watchdog severs a conn with
// several calls in flight, the stalled call reports ErrTimeout and the
// collateral calls report a retryable transport error.
func TestPipelinedTimeoutFailsWholeConn(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, func(req *request) *response {
		return nil // stall everything
	})
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetOpTimeout(60 * time.Millisecond)

	const n = 4
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := conn.Ping()
			errCh <- err
		}()
	}
	timeouts, transports := 0, 0
	for i := 0; i < n; i++ {
		err := <-errCh
		switch {
		case err == nil:
			t.Fatal("stalled pipelined call succeeded")
		case !Retryable(err):
			t.Fatalf("in-flight op on severed conn not retryable: %v", err)
		case errors.Is(err, ErrTimeout):
			timeouts++
		case errors.Is(err, ErrTransport):
			transports++
		default:
			t.Fatalf("unclassified error: %v", err)
		}
	}
	// Each call has its own watchdog; every one that fired before the conn
	// died reports its own timeout, the rest are collateral transport
	// failures. At least the first timer to fire must classify as timeout.
	if timeouts == 0 {
		t.Fatalf("no ErrTimeout among pipelined failures (%d transport)", transports)
	}
}

// TestServerReadAheadBatch pushes a burst of raw frames in one write and
// checks every response comes back: the server's read-ahead loop must
// execute queued requests in order and flush all their responses.
func TestServerReadAheadBatch(t *testing.T) {
	srv, conn := startPair(t)
	f, err := conn.Open("/burst", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	const burst = 100
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blk := []byte{byte(i)}
			if _, err := f.WriteAt(blk, int64(i)); err != nil {
				t.Errorf("burst write %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got := make([]byte, burst)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d after burst", i, got[i])
		}
	}
	if reqs := srv.Stats().Requests; reqs < burst {
		t.Fatalf("server counted %d requests, want >= %d", reqs, burst)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingStore numbers every object ReadAt as it starts, reports the
// number on reads, and holds ReadAt #1 until release is closed.
type countingStore struct {
	storage.Store
	n       atomic.Int64
	reads   chan int64 // buffered beyond the three reads a script makes, so ReadAt never waits on it
	release chan struct{}
}

func (s *countingStore) Open(key string) (storage.Object, error) {
	obj, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return countingObj{obj, s}, nil
}

type countingObj struct {
	storage.Object
	s *countingStore
}

func (o countingObj) ReadAt(p []byte, off int64) (int, error) {
	k := o.s.n.Add(1)
	o.s.reads <- k
	if k == 1 {
		<-o.s.release
	}
	return o.Object.ReadAt(p, off)
}

// wbChunk is the read size of the write-behind scripts: four times bw's
// 64 KiB buffer, so every read response waits on the conn.
const wbChunk = 256 << 10

// wbScript is a raw-frame client on a net.Pipe, whose writes block until
// the peer reads them, facing a ServeConn over a countingStore.
type wbScript struct {
	srv    *Server
	store  *countingStore
	c      net.Conn
	served chan struct{} // closed when ServeConn returns
	data   []byte        // the file's contents: three chunks of a pattern
}

// startWBScript connects, creates and fills a 3-chunk file, then sends
// three chunk reads (seq 10, 11, 12) without reading any response. It
// releases ReadAt #1 only once read #2 is queued behind it, so the first
// dispatch always sees a request waiting.
func startWBScript(t *testing.T) *wbScript {
	t.Helper()
	h := &wbScript{
		srv:    NewServer(),
		store:  &countingStore{Store: storage.NewMemStore(), reads: make(chan int64, 8), release: make(chan struct{})},
		served: make(chan struct{}),
		data:   make([]byte, 3*wbChunk),
	}
	h.srv.AddResource("mem", "memory", h.store)
	for i := range h.data {
		h.data[i] = byte(i * 7)
	}
	var sEnd net.Conn
	h.c, sEnd = net.Pipe()
	go func() {
		h.srv.ServeConn(sEnd)
		close(h.served)
	}()
	t.Cleanup(func() {
		select {
		case <-h.store.release:
		default:
			close(h.store.release) // a failed setup must not strand ReadAt #1
		}
		h.c.Close()
		<-h.served
	})

	h.call(t, &request{op: opConnect, seq: 1, path: "tester"})
	handle := int32(h.call(t, &request{op: opOpen, seq: 2, path: "/wb", flags: O_RDWR | O_CREATE}).value)
	if n := h.call(t, writevReq(3, handle, 0, h.data)).value; n != int64(len(h.data)) {
		t.Fatalf("prefill wrote %d bytes, want %d", n, len(h.data))
	}
	for i := 0; i < 3; i++ {
		h.send(t, readvReq(uint32(10+i), handle, int64(i)*wbChunk, wbChunk))
	}
	// The server's reader pushed read #2 before it consumed read #3's
	// bytes, which is when the last send returned.
	close(h.store.release)
	return h
}

func (h *wbScript) send(t *testing.T, req *request) {
	t.Helper()
	bw := bufio.NewWriter(h.c)
	if err := writeRequest(bw, req); err != nil {
		t.Fatalf("encode seq %d: %v", req.seq, err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("send seq %d: %v", req.seq, err)
	}
}

func (h *wbScript) call(t *testing.T, req *request) *response {
	t.Helper()
	h.send(t, req)
	resp := h.recv(t, req.seq)
	if err := statusToErr(resp.status, resp.msg, resp.value); err != nil {
		t.Fatalf("seq %d: %v", req.seq, err)
	}
	return resp
}

// recv reads one response straight off the pipe (no client-side
// buffering, so the server's writes return exactly as bytes are consumed).
func (h *wbScript) recv(t *testing.T, seq uint32) *response {
	t.Helper()
	resp, err := readResponse(h.c)
	if err != nil {
		t.Fatalf("response %d: %v", seq, err)
	}
	if resp.seq != seq {
		t.Fatalf("response seq = %d, want %d", resp.seq, seq)
	}
	return resp
}

// awaitRead waits for ReadAt #k to start. The deadline only turns a
// server that never gets there into a failure instead of a hang.
func (h *wbScript) awaitRead(t *testing.T, k int64) {
	t.Helper()
	for {
		select {
		case got := <-h.store.reads:
			if got == k {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ReadAt #%d never started (%d so far): dispatch is waiting on a response write", k, h.store.n.Load())
		}
	}
}

// checkChunk verifies a read response carries chunk i of the file.
func (h *wbScript) checkChunk(t *testing.T, resp *response, i int) {
	t.Helper()
	if resp.status != statusOK || !bytes.Equal(resp.data, h.data[i*wbChunk:(i+1)*wbChunk]) {
		t.Fatalf("response %d: status %d, %d bytes, not chunk %d", resp.seq, resp.status, len(resp.data), i)
	}
}

// TestServerWriteBehindOverlapsDispatch pins write-behind by counting
// storage reads against bytes consumed: request 2's ReadAt starts while
// response 1 is still unread on the pipe, request 3's does not start
// until response 1 is fully consumed (at most one response behind
// dispatch), and all three responses arrive intact in order.
func TestServerWriteBehindOverlapsDispatch(t *testing.T) {
	h := startWBScript(t)
	h.awaitRead(t, 2)

	// Take response 1 up to its last byte: its write is still blocked, so
	// the executor must still be waiting on it.
	frame := make([]byte, respHeaderSize+wbChunk)
	if _, err := io.ReadFull(h.c, frame[:len(frame)-1]); err != nil {
		t.Fatal(err)
	}
	if n := h.store.n.Load(); n != 2 {
		t.Fatalf("%d ReadAts before response 1 was consumed, want 2", n)
	}
	if _, err := io.ReadFull(h.c, frame[len(frame)-1:]); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(bytes.NewReader(frame))
	if err != nil || resp.seq != 10 {
		t.Fatalf("response 1: %+v, %v", resp, err)
	}
	h.checkChunk(t, resp, 0)
	h.awaitRead(t, 3)
	h.checkChunk(t, h.recv(t, 11), 1)
	h.checkChunk(t, h.recv(t, 12), 2)
}

// TestWriteAtVec covers the vectored write path end to end: discontiguous
// segments land at their offsets, contiguous ones merge on the wire, and
// the acknowledged total covers every byte.
func TestWriteAtVec(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/vec", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	segs := []WriteSeg{
		{Off: 0, Data: bytes.Repeat([]byte{'a'}, 10)},
		{Off: 10, Data: bytes.Repeat([]byte{'b'}, 10)}, // contiguous with the first
		{Off: 100, Data: bytes.Repeat([]byte{'c'}, 5)}, // gap
	}
	n, err := f.WriteAtVec(segs)
	if err != nil || n != 25 {
		t.Fatalf("WriteAtVec = %d, %v", n, err)
	}
	got := make([]byte, 105)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'a'}, 10), bytes.Repeat([]byte{'b'}, 10)...)
	if !bytes.Equal(got[:20], want) {
		t.Fatalf("contiguous run = %q", got[:20])
	}
	if !bytes.Equal(got[100:105], bytes.Repeat([]byte{'c'}, 5)) {
		t.Fatalf("gapped segment = %q", got[100:105])
	}
	for i := 20; i < 100; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWritevMalformedVectorIsStatusError: a corrupt vector payload must be
// answered with an ErrInvalid status — the wire frame parsed fine, so the
// connection survives.
func TestWritevMalformedVectorIsStatusError(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/badvec", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.call(&request{op: opWritev, handle: f.handle, data: []byte{0xff, 0xff}}, nil)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("malformed vector error = %v, want ErrInvalid", err)
	}
	// The connection took no damage.
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after malformed vector: %v", err)
	}
}
