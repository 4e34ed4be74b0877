package srb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/tenant"
	"semplar/internal/trace"
)

// Conn is a client connection to an SRB server. Calls are pipelined: any
// number of tagged requests may be in flight at once on one connection. A
// sender serializes frames onto the wire under wmu while a demux goroutine
// (readLoop) matches responses to waiting callers by the seq tag, so the
// per-op latency of a batch of calls collapses to roughly one round trip —
// the property the paper's asynchronous primitives need from the transport.
// Multiple connections still multiply bandwidth, as in the real SRB; a
// single connection now multiplies latency tolerance.
type Conn struct {
	c    net.Conn // immutable after NewConn
	user string   // immutable after NewConn

	mu      sync.Mutex
	seq     uint32                  // guarded by mu
	pending map[uint32]*pendingCall // guarded by mu
	err     error                   // guarded by mu; sticky, first failure wins
	timeout time.Duration           // guarded by mu; per-operation deadline (0 = none)
	tr      *trace.Tracer           // guarded by mu; nil = tracing off
	lane    int64                   // guarded by mu; this connection's trace lane

	wmu sync.Mutex
	bw  *bufio.Writer // guarded by wmu

	br *bufio.Reader // owned by readLoop after NewConn
}

// pendingCall is one in-flight request awaiting its response.
//
// Completion is a race between three parties — the demux loop (response
// arrived), the op-deadline watchdog (timer fired), and fail (transport
// died) — resolved by CAS on state: exactly one party leaves callWaiting.
// The losers' outcomes are discarded, which is precisely the fix for the
// old watchdog bug where a timer firing after the response was already
// read still severed a healthy connection.
//
// A data call names dst, the caller's buffers, and readLoop reads the
// payload straight into them. That write must not outlive the call, so
// the rule is: a call returns only after readLoop has finished with its
// destination. readLoop claims the call (callReceiving) after the header
// and before the first payload byte; from then on it alone closes done.
// The watchdog can still expire a receiving call: it marks it and severs
// the connection, the stalled read fails, and readLoop releases the call,
// which reports ErrTimeout. fail does not see a receiving call at all —
// it left pending at the claim — so a Close mid-payload also completes
// through readLoop, with the connection's sticky error.
type pendingCall struct {
	done  chan struct{}
	state atomic.Int32
	dst   [][]byte // the payload's destination; nil: a pooled resp.data
	resp  response // written only by the settling party, before close(done)
	err   error    // written only by the settling party, before close(done)
}

// pendingCall states.
const (
	callWaiting   int32 = iota // sent or sending; no party has claimed it
	callReceiving              // readLoop holds it and is reading its reply
	callDone                   // outcome in resp/err
	callExpired                // the watchdog's deadline passed; ErrTimeout
)

// claim is readLoop's move once a reply's header names the call: it takes
// the call for receiving unless the watchdog expired it first.
func (pc *pendingCall) claim() bool {
	return pc.state.CompareAndSwap(callWaiting, callReceiving)
}

// complete delivers the outcome of a call nobody has claimed yet: fail's
// orphans.
func (pc *pendingCall) complete(err error) {
	if pc.state.CompareAndSwap(callWaiting, callDone) {
		pc.err = err
		close(pc.done)
	}
}

// finish ends readLoop's claim: it delivers the outcome, unless the
// watchdog expired the call meanwhile, and releases the caller either way.
func (pc *pendingCall) finish(resp *response, err error) {
	if pc.state.CompareAndSwap(callReceiving, callDone) {
		if resp != nil {
			pc.resp = *resp
		}
		pc.err = err
	}
	close(pc.done)
}

// expire is the watchdog's move; it reports whether the connection must be
// severed. A waiting call is released at once. A call whose reply
// readLoop is receiving is only marked: readLoop releases it when the
// severed connection fails its read. A settled call is left alone.
func (pc *pendingCall) expire() bool {
	if pc.state.CompareAndSwap(callWaiting, callExpired) {
		close(pc.done)
		return true
	}
	return pc.state.CompareAndSwap(callReceiving, callExpired)
}

// Credentials identifies a tenant to a multi-tenant server. The key never
// crosses the wire: the connect handshake carries an HMAC proof computed
// over (tenant ID, user) under it. The zero value is anonymous — accepted
// by servers without a tenant registry, refused (statusAuthFailed) by
// servers with one.
type Credentials struct {
	TenantID string
	Key      []byte
}

// Anonymous reports whether the credentials are the zero "no tenant" value.
func (cr Credentials) Anonymous() bool { return cr.TenantID == "" }

// NewConn performs the connect handshake over an established transport,
// anonymously (no tenant credentials).
func NewConn(c net.Conn, user string) (*Conn, error) {
	return NewConnAuth(c, user, Credentials{})
}

// NewConnAuth performs the connect handshake over an established transport,
// presenting tenant credentials when cred is non-anonymous. An auth refusal
// surfaces as terminal ErrAuthFailed and the transport is closed (the
// server hangs up after refusing anyway).
func NewConnAuth(c net.Conn, user string, cred Credentials) (*Conn, error) {
	conn := &Conn{
		c:       c,
		user:    user,
		br:      bufio.NewReaderSize(c, 64<<10),
		bw:      bufio.NewWriterSize(c, 64<<10),
		pending: make(map[uint32]*pendingCall),
	}
	go conn.readLoop()
	connect := &request{op: opConnect, path: user}
	if !cred.Anonymous() {
		connect.data = encodeAuth(cred.TenantID, tenant.Proof(cred.Key, cred.TenantID, user))
	}
	resp, err := conn.call(connect, nil)
	if err != nil {
		//lint:allow errdrop -- discarding the transport on a failed handshake; the handshake error is returned
		c.Close()
		return nil, err
	}
	if resp.value != protoVer {
		//lint:allow errdrop -- discarding the transport on a version mismatch; ErrProtocol is returned
		c.Close()
		return nil, fmt.Errorf("%w: server protocol %d", ErrProtocol, resp.value)
	}
	return conn, nil
}

// Dial connects to a server over TCP and performs the handshake.
func Dial(addr, user string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, user)
}

// ErrConnClosed is returned for calls on a closed client connection. It
// is transient: the call raced a deliberate local Close, the operation
// never completed, and a replay elsewhere is safe.
var ErrConnClosed = newErr("srb: connection closed", noStatus, transient)

// errWatchdogSevered is the failure of a connection the op-deadline
// watchdog cut.
var errWatchdogSevered = fmt.Errorf("%w: connection severed by op-deadline watchdog", ErrTransport)

// Close terminates the connection. In-flight calls fail with ErrConnClosed
// (or the earlier sticky error if the connection had already failed). fail
// closes the transport exactly once (first failure wins), so Close after an
// earlier failure must not close again: real TCP conns error on a double
// close, and that spurious error would mask a clean shutdown.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

// SetTracer attributes this connection's wire traffic to tr: every
// request/response round trip becomes a "wire" span on the connection's
// own trace lane, tagged with its seq, and feeds the srb.client.op latency
// histogram. A nil tracer (the default) disables tracing.
func (c *Conn) SetTracer(tr *trace.Tracer) {
	c.mu.Lock()
	c.tr = tr
	c.lane = tr.NextID()
	c.mu.Unlock()
}

// SetOpTimeout installs a per-operation deadline: any call that does not
// complete within d fails with an error wrapping ErrTimeout and the
// connection is severed (the only portable way to unblock a reader stuck
// on a black-holed stream). Zero disables the deadline.
func (c *Conn) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// fail severs the connection with a classified error. The first failure
// wins: it becomes the sticky error returned by every later call, and every
// in-flight call orphaned by the failure completes with it. Classification
// happens here at the failure site — a timeout is ErrTimeout on the call
// that timed out, and collateral damage is ErrTransport — so one timed-out
// op can no longer mislabel every subsequent transport error on the
// connection (the old sticky-timedOut bug).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		//lint:allow errdrop -- severing a failed transport; the classified error is already propagating
		c.c.Close()
	}
	err = c.err
	orphans := c.pending
	c.pending = make(map[uint32]*pendingCall)
	c.mu.Unlock()
	for _, pc := range orphans {
		pc.complete(err)
	}
}

// sticky returns the connection's first failure.
func (c *Conn) sticky() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop is the demux half of pipelining. It owns br: it reads responses
// in arrival order and completes the pending call carrying the matching
// tag, in whatever order the tags come back. It exits when the transport
// fails, failing every in-flight call with a classifiable transport error.
func (c *Conn) readLoop() {
	for c.receive() {
	}
}

// receive reads one response: the header, which names the call, then the
// msg and payload, straight into the call's destination. It reports
// whether the connection is still healthy.
func (c *Conn) receive() bool {
	resp, msgLen, err := readResponseHeader(c.br)
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrTransport, err))
		return false
	}
	c.mu.Lock()
	pc := c.pending[resp.seq]
	delete(c.pending, resp.seq)
	c.mu.Unlock()
	if pc == nil {
		// A tag nothing is waiting for. Either the server invented a
		// response or this conn's framing drifted; the stream cannot be
		// trusted past this point. (A late answer to a timed-out call also
		// lands here, but the watchdog already severed the conn then, so
		// this fail is a no-op.)
		c.fail(fmt.Errorf("%w: response for unknown seq %d", ErrProtocol, resp.seq))
		return false
	}
	if !pc.claim() {
		// The watchdog expired the call and is severing the connection;
		// its caller may have returned, so the payload has no destination.
		_, err := c.br.Discard(msgLen + resp.dataLen)
		return err == nil
	}
	if resp.msg, resp.data, err = readResponseBody(c.br, msgLen, resp.dataLen, pc.dst); err != nil {
		if !errors.Is(err, ErrProtocol) {
			err = fmt.Errorf("%w: %v", ErrTransport, err)
		}
		c.fail(err)
		pc.finish(nil, c.sticky())
		return false
	}
	pc.finish(&resp, nil)
	return true
}

// validateRequest applies the wire bounds client-side, before a frame is
// built: an oversized argument fails its one call with ErrInvalid and the
// connection stays healthy. Without this, the peer's parser would reject
// the frame as ErrProtocol — severing the connection the client itself
// poisoned. Symmetric checks remain in writeRequest as parser-side defense.
func validateRequest(req *request, tail []writeSeg) error {
	if len(req.path) > maxPathLen {
		return fmt.Errorf("%w: path length %d exceeds max %d", ErrInvalid, len(req.path), maxPathLen)
	}
	if n := req.dataLen(tail); n > maxReqData {
		return fmt.Errorf("%w: request payload %d exceeds max %d", ErrInvalid, n, maxReqData)
	}
	return nil
}

// register assigns the request's tag and parks a pendingCall for the demux
// loop, snapshotting the tracer and deadline under mu.
func (c *Conn) register(req *request, dst [][]byte) (*pendingCall, *trace.Tracer, int64, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, nil, 0, 0, c.err
	}
	for {
		c.seq++
		if c.seq == 0 {
			// Wraparound: skip tag 0 so "no tag" stays unambiguous in
			// diagnostics.
			continue
		}
		if _, inFlight := c.pending[c.seq]; !inFlight {
			break
		}
	}
	req.seq = c.seq
	pc := &pendingCall{done: make(chan struct{}), dst: dst}
	c.pending[req.seq] = pc
	return pc, c.tr, c.lane, c.timeout, nil
}

// call sends one tagged request and waits for its response. Concurrent
// callers pipeline: each holds wmu only for its own frame, then blocks on
// its own pendingCall while others use the wire. A data call passes dst,
// the buffers its payload is read into, front to back (resp.dataLen bytes
// of them); any other call passes nil and gets the payload in resp.data. A
// write passes its segments as tail, sent after req.data (writeRequest).
// Returned errors distinguish transport failures (sticky, retryable on a
// fresh connection) from server status errors (terminal).
func (c *Conn) call(req *request, dst [][]byte, tail ...writeSeg) (*response, error) {
	if err := validateRequest(req, tail); err != nil {
		return nil, err
	}
	pc, tr, lane, timeout, err := c.register(req, dst)
	if err != nil {
		return nil, err
	}
	var sp trace.Span
	traced := tr.Enabled()
	if traced {
		// The span covers send + server turnaround + receive — the full
		// wire cost of this call. Under pipelining, spans of concurrent
		// calls overlap on the connection lane; the seq arg recorded at
		// End disambiguates them.
		sp = tr.Begin("wire", opName(req.op), lane)
	}
	if timeout > 0 {
		// Watchdog, armed before the send so a write stalled on a
		// black-holed stream is bounded too. Expire-then-sever: if the
		// response wins the race, the CAS loses and the healthy
		// connection survives — the watchdog only kills a connection
		// whose call it actually failed.
		timer := time.AfterFunc(timeout, func() {
			if pc.expire() {
				c.fail(errWatchdogSevered)
			}
		})
		defer timer.Stop()
	}
	c.wmu.Lock()
	//lint:allow lockheld -- c.wmu IS the frame-serialization point: one request frame at a time
	err = writeRequest(c.bw, req, tail...)
	if err == nil {
		//lint:allow lockheld -- flushed under the same write lock, still one frame at a time
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// The stream may be torn mid-frame; nothing after this frame can
		// be trusted, so the whole connection fails.
		c.fail(fmt.Errorf("%w: %v", ErrTransport, err))
	}
	<-pc.done
	if traced {
		tr.Observe("srb.client.op", sp.End(trace.Int("seq", int64(req.seq))))
	}
	if pc.state.Load() == callExpired {
		// The watchdog releases a waiting call before it severs; sever
		// here too, so no caller sees the connection live after a timeout.
		c.fail(errWatchdogSevered)
		return nil, fmt.Errorf("%w after %v (%s seq %d)", ErrTimeout, timeout, opName(req.op), req.seq)
	}
	if pc.err != nil {
		return nil, pc.err
	}
	if pc.resp.status != statusOK {
		return nil, statusToErr(pc.resp.status, pc.resp.msg, pc.resp.value)
	}
	return &pc.resp, nil
}

// Ping round-trips a no-op request and returns the server's clock.
func (c *Conn) Ping() (int64, error) {
	resp, err := c.call(&request{op: opPing}, nil)
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Open opens or creates a logical file. resource may be empty to use the
// server default.
func (c *Conn) Open(path string, flags int, resource string) (*File, error) {
	req := &request{op: opOpen, path: path, flags: uint32(flags)}
	if resource != "" {
		req.data = []byte(resource)
	}
	resp, err := c.call(req, nil)
	if err != nil {
		return nil, err
	}
	return &File{conn: c, handle: int32(resp.value), path: path}, nil
}

// Stat queries a logical path.
func (c *Conn) Stat(path string) (*FileInfo, error) {
	resp, err := c.call(&request{op: opStat, path: path}, nil)
	if err != nil {
		return nil, err
	}
	fi, _, err := decodeFileInfo(resp.data)
	return fi, err
}

// Mkdir creates a collection.
func (c *Conn) Mkdir(path string) error {
	_, err := c.call(&request{op: opMkdir, path: path}, nil)
	return err
}

// Rmdir removes an empty collection.
func (c *Conn) Rmdir(path string) error {
	_, err := c.call(&request{op: opRmdir, path: path}, nil)
	return err
}

// Unlink removes a logical file and its physical object.
func (c *Conn) Unlink(path string) error {
	_, err := c.call(&request{op: opUnlink, path: path}, nil)
	return err
}

// List returns the entries of a collection.
func (c *Conn) List(path string) ([]*FileInfo, error) {
	resp, err := c.call(&request{op: opList, path: path}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*FileInfo, 0, resp.value)
	data := resp.data
	for len(data) > 0 {
		fi, rest, err := decodeFileInfo(data)
		if err != nil {
			return nil, err
		}
		out = append(out, fi)
		data = rest
	}
	return out, nil
}

// SetAttr attaches a metadata attribute to a path.
func (c *Conn) SetAttr(path, key, value string) error {
	if strings.IndexByte(key, 0) >= 0 {
		// The wire form is key\0value: a NUL inside the key would shift
		// the server's split and silently store a corrupted pair.
		return fmt.Errorf("%w: attribute key contains NUL byte", ErrInvalid)
	}
	data := make([]byte, 0, len(key)+len(value)+1)
	data = append(data, key...)
	data = append(data, 0)
	data = append(data, value...)
	_, err := c.call(&request{op: opSetAttr, path: path, data: data}, nil)
	return err
}

// GetAttr reads a metadata attribute.
func (c *Conn) GetAttr(path, key string) (string, error) {
	resp, err := c.call(&request{op: opGetAttr, path: path, data: []byte(key)}, nil)
	if err != nil {
		return "", err
	}
	return string(resp.data), nil
}

// Rename moves a logical file.
func (c *Conn) Rename(oldPath, newPath string) error {
	_, err := c.call(&request{op: opRename, path: oldPath, data: []byte(newPath)}, nil)
	return err
}

// Replicate copies a data object onto another storage resource and
// registers the replica in the catalog; reads fail over to replicas when
// the primary copy is unavailable. Returns the replicated byte count.
func (c *Conn) Replicate(path, resource string) (int64, error) {
	resp, err := c.call(&request{op: opReplicate, path: path, data: []byte(resource)}, nil)
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Checksum asks the server to compute the SHA-256 of a data object
// (hex-encoded) without transferring the bytes, recording it as the
// "checksum" attribute. Returns the digest and the object size.
func (c *Conn) Checksum(path string) (string, int64, error) {
	resp, err := c.call(&request{op: opChecksum, path: path}, nil)
	if err != nil {
		return "", 0, err
	}
	return string(resp.data), resp.value, nil
}

// Resources lists the server's storage resources as name/kind pairs.
func (c *Conn) Resources() (map[string]string, error) {
	resp, err := c.call(&request{op: opResources}, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	b := resp.data
	for len(b) > 0 {
		var name, kind string
		if name, b, err = takeString(b); err != nil {
			return nil, err
		}
		if kind, b, err = takeString(b); err != nil {
			return nil, err
		}
		out[name] = kind
	}
	return out, nil
}

// File is an open remote file handle. Methods are safe for concurrent use;
// concurrent requests pipeline on the underlying connection.
type File struct {
	conn   *Conn
	handle int32
	path   string
}

// Path returns the logical path the file was opened with.
func (f *File) Path() string { return f.path }

// Close releases the remote handle.
func (f *File) Close() error {
	_, err := f.conn.call(&request{op: opClose, handle: f.handle}, nil)
	return err
}

// ReadAt reads len(p) bytes at an explicit offset: a one-range ReadAtVec,
// one frame per MaxChunk, each read straight into p. It returns io.EOF
// after reading past end of file.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtVec([]ReadSeg{{Off: off, Buf: p}})
}

// WriteAt writes p at an explicit offset: a one-segment WriteAtVec, one
// frame per MaxChunk. A chunk acknowledged short (e.g. by a full device)
// surfaces io.ErrShortWrite rather than being retried forever.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtVec([]WriteSeg{{Off: off, Data: p}})
}

// WriteSeg is one segment of a vectored write: Data destined for absolute
// offset Off. Segments should be sorted by ascending offset and
// non-overlapping; adjacent contiguous segments are merged on the wire.
type WriteSeg struct {
	Off  int64
	Data []byte
}

// WriteAtVec writes all segments using vectored opWritev frames: many
// discontiguous extents per round trip instead of one RPC per extent,
// which is what makes fine-grained striped writes affordable over a
// high-latency link. Segments are packed greedily into frames whose table
// and payload fit maxReqData, so one MaxChunk segment is one frame, and
// each frame sends them from the caller's buffers. Returns
// the total byte count acknowledged by the server; a frame acknowledged
// short surfaces io.ErrShortWrite, like WriteAt.
//
// The operation is idempotent (each segment is an absolute-offset write),
// so a transport failure mid-vector may be replayed on a fresh connection.
func (f *File) WriteAtVec(segs []WriteSeg) (int, error) {
	total := 0
	var one [1]writeSeg // a one-segment call's frame and table, without allocating
	var oneTable [oneEntryTable]byte
	frame := slices.Grow(one[:0], len(segs))
	frameBytes := 0
	flush := func() (int, error) {
		if len(frame) == 0 {
			return 0, nil
		}
		table, pooled := encodeTable(oneTable[:], frame)
		want := frameBytes
		resp, err := f.conn.call(&request{op: opWritev, handle: f.handle, data: table}, nil, frame...)
		putBuf(pooled) // frame is on the wire (or dead); recycle
		frame = frame[:0]
		frameBytes = 0
		if err != nil {
			return 0, err
		}
		if int(resp.value) < want {
			return int(resp.value), io.ErrShortWrite
		}
		return int(resp.value), nil
	}
	for _, s := range segs {
		if len(s.Data) == 0 {
			continue
		}
		if s.Off < 0 {
			return total, fmt.Errorf("%w: negative write offset", ErrInvalid)
		}
		rest := s.Data
		off := s.Off
		for len(rest) > 0 {
			// Room left in the current frame for payload, worst-case
			// assuming this segment needs its own table entry.
			room := maxReqData - vecHdrSize - (len(frame)+1)*vecEntrySize - frameBytes
			if room <= 0 {
				n, err := flush()
				total += n
				if err != nil {
					return total, err
				}
				continue
			}
			chunk := rest
			if len(chunk) > room {
				chunk = chunk[:room]
			}
			frame = append(frame, writeSeg{off: off, data: chunk})
			frameBytes += len(chunk)
			off += int64(len(chunk))
			rest = rest[len(chunk):]
		}
	}
	n, err := flush()
	total += n
	return total, err
}

// ReadSeg is one range of a vectored read: len(Buf) bytes wanted from
// absolute offset Off. Ranges should be sorted by ascending offset and
// non-overlapping; adjacent contiguous ranges are merged on the wire.
type ReadSeg struct {
	Off int64
	Buf []byte
}

// ReadAtVec reads all ranges using vectored opReadv frames: many
// discontiguous extents per round trip instead of one RPC per extent — the
// list-I/O half of the noncontiguous fast path. Ranges are packed greedily
// into frames bounded by MaxChunk of reply payload. The server fills ranges
// front to back and stops at the first short one, so the reply scatters
// sequentially, straight into the ranges' buffers; a short reply surfaces
// io.EOF with the contiguous prefix count, like ReadAt.
func (f *File) ReadAtVec(segs []ReadSeg) (int, error) {
	total := 0
	var one [1]readSeg // a one-range call's frame and table, without allocating
	var oneTable [oneEntryTable]byte
	frame := slices.Grow(one[:0], len(segs))
	dsts := make([][]byte, 0, len(segs))
	frameBytes := 0
	flush := func() (int, error) {
		if len(frame) == 0 {
			return 0, nil
		}
		table, pooled := encodeTable(oneTable[:], frame)
		want := frameBytes
		resp, err := f.conn.call(&request{op: opReadv, handle: f.handle, length: int64(want), data: table}, dsts)
		putBuf(pooled) // frame is on the wire (or dead); recycle
		frame = frame[:0]
		dsts = dsts[:0]
		frameBytes = 0
		if err != nil {
			return 0, err
		}
		if resp.dataLen < want {
			return resp.dataLen, io.EOF
		}
		return resp.dataLen, nil
	}
	for _, s := range segs {
		if len(s.Buf) == 0 {
			continue
		}
		if s.Off < 0 {
			return total, fmt.Errorf("%w: negative read offset", ErrInvalid)
		}
		rest := s.Buf
		off := s.Off
		for len(rest) > 0 {
			// Room left in the current frame, bounded by both the reply
			// payload (frameBytes of data) and the request frame (the range
			// table), worst-case assuming this range needs its own entry.
			room := MaxChunk - frameBytes
			if tr := maxReqData - vecHdrSize - (len(frame)+1)*vecEntrySize; tr < room {
				room = tr
			}
			if room <= 0 {
				n, err := flush()
				total += n
				if err != nil {
					return total, err
				}
				continue
			}
			chunk := rest
			if len(chunk) > room {
				chunk = chunk[:room]
			}
			frame = append(frame, readSeg{off: off, n: len(chunk)})
			dsts = append(dsts, chunk)
			frameBytes += len(chunk)
			off += int64(len(chunk))
			rest = rest[len(chunk):]
		}
	}
	n, err := flush()
	total += n
	return total, err
}

// Stat queries the open file.
func (f *File) Stat() (*FileInfo, error) {
	resp, err := f.conn.call(&request{op: opFstat, handle: f.handle}, nil)
	if err != nil {
		return nil, err
	}
	fi, _, err := decodeFileInfo(resp.data)
	return fi, err
}

// Size is a convenience around Stat.
func (f *File) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size, nil
}

// Truncate sets the file length.
func (f *File) Truncate(size int64) error {
	_, err := f.conn.call(&request{op: opTruncate, handle: f.handle, length: size}, nil)
	return err
}

// Sync flushes the file on the server.
func (f *File) Sync() error {
	_, err := f.conn.call(&request{op: opSync, handle: f.handle}, nil)
	return err
}
