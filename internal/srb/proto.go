// Package srb implements a Storage Resource Broker: a data management
// server exporting a logical remote filesystem (SRBFS) whose I/O interface
// is semantically equivalent to the POSIX file API, plus the client side of
// its wire protocol. It reproduces the substrate SEMPLAR was built on.
//
// Like the real SRB, a connection services one request at a time; parallel
// transfers are obtained by opening multiple connections — which is exactly
// the property the paper's asynchronous multi-stream optimization exploits.
package srb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Protocol constants.
const (
	reqMagic  = 0x5242 // "RB"
	respMagic = 0x5243
	protoVer  = 1

	reqHeaderSize  = 40
	respHeaderSize = 28

	// MaxChunk bounds the payload of one request/response; larger
	// transfers are split by the client.
	MaxChunk = 4 << 20

	// maxPathLen bounds the path field of a request. Enforced by the
	// client before sending (ErrInvalid, the connection stays healthy)
	// and by the server's parser (ErrProtocol — by then it is framing
	// damage).
	maxPathLen = 4096

	// maxMsgLen bounds the status-message field of a response. The
	// server truncates longer messages in writeResponse, so an oversized
	// msgLen on the client side is always framing damage, never an
	// honest but long error string.
	maxMsgLen = 4096
)

// Opcodes.
const (
	opConnect uint8 = iota + 1
	opPing
	opOpen
	opClose
	opRead
	opWrite
	_ // 7: retired (the server-side file pointer's seek); never reuse
	opStat
	opFstat
	opTruncate
	opSync
	opMkdir
	opRmdir
	opUnlink
	opList
	opSetAttr
	opGetAttr
	opResources
	opRename
	opReplicate
	opChecksum
	opWritev
	opReadv
)

// opName renders an opcode for traces and diagnostics.
func opName(op uint8) string {
	switch op {
	case opConnect:
		return "connect"
	case opPing:
		return "ping"
	case opOpen:
		return "open"
	case opClose:
		return "close"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opStat:
		return "stat"
	case opFstat:
		return "fstat"
	case opTruncate:
		return "truncate"
	case opSync:
		return "sync"
	case opMkdir:
		return "mkdir"
	case opRmdir:
		return "rmdir"
	case opUnlink:
		return "unlink"
	case opList:
		return "list"
	case opSetAttr:
		return "setattr"
	case opGetAttr:
		return "getattr"
	case opResources:
		return "resources"
	case opRename:
		return "rename"
	case opReplicate:
		return "replicate"
	case opChecksum:
		return "checksum"
	case opWritev:
		return "writev"
	case opReadv:
		return "readv"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// Open flags (SRBFS-level, independent of the host OS).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_ACCESS = 0x3 // access-mode mask
	O_CREATE = 0x4
	O_TRUNC  = 0x8
	O_EXCL   = 0x10
)

// Status codes carried in responses.
const (
	statusOK int32 = iota
	statusNotFound
	statusExists
	statusIsDir
	statusNotDir
	statusBadHandle
	statusInvalid
	statusNotEmpty
	statusIO
	statusPerm
	statusBusy
	statusAuthFailed
	statusRateLimited
	statusQuotaExceeded
)

// Errors corresponding to the wire status codes.
var (
	ErrNotFound  = errors.New("srb: no such file or collection")
	ErrExists    = errors.New("srb: file exists")
	ErrIsDir     = errors.New("srb: is a collection")
	ErrNotDir    = errors.New("srb: not a collection")
	ErrBadHandle = errors.New("srb: bad file handle")
	ErrInvalid   = errors.New("srb: invalid argument")
	ErrNotEmpty  = errors.New("srb: collection not empty")
	ErrIO        = errors.New("srb: i/o error")
	ErrPerm      = errors.New("srb: permission denied")
	ErrProtocol  = errors.New("srb: protocol error")

	// ErrServerBusy is the overload-shedding reply: the server is healthy
	// but at its connection or in-flight-op limit (or draining for
	// shutdown) and refused the request without starting it. Unlike every
	// other status error it is transient — srb.Retryable classifies it as
	// retryable, so the client's backoff absorbs shed load transparently.
	ErrServerBusy = errors.New("srb: server busy")

	// ErrAuthFailed is the terminal handshake refusal: the connect did not
	// carry a valid tenant proof (missing, unknown tenant, or bad key).
	// The server closes the connection after sending it, so retrying on
	// the same credentials can never succeed.
	ErrAuthFailed = errors.New("srb: authentication failed")

	// ErrRateLimited is the per-tenant fair-share shed: the tenant is over
	// its token bucket, the request was refused without being started, and
	// the response carries a retry-after hint. Transient — like
	// ErrServerBusy, but scoped to one tenant so other tenants keep
	// flowing. Wrapped as *RateLimitedError when a hint is present.
	ErrRateLimited = errors.New("srb: tenant rate limited")

	// ErrQuotaExceeded is the terminal storage-quota refusal: the write
	// would push the tenant's stored bytes over its quota. Retrying cannot
	// help until the tenant deletes data, so it is classified terminal.
	ErrQuotaExceeded = errors.New("srb: tenant quota exceeded")
)

// RateLimitedError carries the server's retry-after hint alongside
// ErrRateLimited. errors.Is(err, ErrRateLimited) matches it via Unwrap;
// RetryPolicy.BackoffFor uses errors.As to honor the hint as a backoff
// floor.
type RateLimitedError struct {
	// RetryAfter is the server's estimate of when the refused request
	// would fit the tenant's bucket again.
	RetryAfter time.Duration
	msg        string
}

func (e *RateLimitedError) Error() string {
	s := ErrRateLimited.Error()
	if e.msg != "" {
		s += ": " + e.msg
	}
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return s
}

func (e *RateLimitedError) Unwrap() error { return ErrRateLimited }

// statusToErr converts a wire status to an error. value is the response's
// value field, which statusRateLimited reuses as a retry-after hint in
// nanoseconds; every other status ignores it.
func statusToErr(st int32, msg string, value int64) error {
	var base error
	switch st {
	case statusOK:
		return nil
	case statusNotFound:
		base = ErrNotFound
	case statusExists:
		base = ErrExists
	case statusIsDir:
		base = ErrIsDir
	case statusNotDir:
		base = ErrNotDir
	case statusBadHandle:
		base = ErrBadHandle
	case statusInvalid:
		base = ErrInvalid
	case statusNotEmpty:
		base = ErrNotEmpty
	case statusIO:
		base = ErrIO
	case statusPerm:
		base = ErrPerm
	case statusBusy:
		base = ErrServerBusy
	case statusAuthFailed:
		base = ErrAuthFailed
	case statusRateLimited:
		var after time.Duration
		if value > 0 {
			after = time.Duration(value)
		}
		return &RateLimitedError{RetryAfter: after, msg: msg}
	case statusQuotaExceeded:
		base = ErrQuotaExceeded
	default:
		// Unknown codes (a newer server) degrade to the generic I/O
		// error. Known codes must be mapped explicitly above — the
		// retryclass lint rule rejects any status relying on this arm.
		base = ErrIO
	}
	if msg != "" {
		return fmt.Errorf("%w: %s", base, msg)
	}
	return base
}

func errToStatus(err error) (int32, string) {
	switch {
	case err == nil:
		return statusOK, ""
	case errors.Is(err, ErrNotFound):
		return statusNotFound, ""
	case errors.Is(err, ErrExists):
		return statusExists, ""
	case errors.Is(err, ErrIsDir):
		return statusIsDir, ""
	case errors.Is(err, ErrNotDir):
		return statusNotDir, ""
	case errors.Is(err, ErrBadHandle):
		return statusBadHandle, ""
	case errors.Is(err, ErrInvalid):
		return statusInvalid, ""
	case errors.Is(err, ErrNotEmpty):
		return statusNotEmpty, ""
	case errors.Is(err, ErrPerm):
		return statusPerm, ""
	case errors.Is(err, ErrServerBusy):
		return statusBusy, ""
	case errors.Is(err, ErrAuthFailed):
		return statusAuthFailed, ""
	case errors.Is(err, ErrRateLimited):
		// The retry-after hint travels in the response value field, which
		// the server's shed path sets directly (see rateLimitedResp);
		// this mapping covers errors bubbled up from inner layers.
		return statusRateLimited, ""
	case errors.Is(err, ErrQuotaExceeded):
		return statusQuotaExceeded, ""
	default:
		return statusIO, err.Error()
	}
}

// request is the wire form of one client call.
//
//	magic   uint16
//	version uint8
//	opcode  uint8
//	seq     uint32
//	handle  int32
//	flags   uint32
//	offset  int64
//	length  int64
//	pathLen uint32
//	dataLen uint32
//	path    [pathLen]byte
//	data    [dataLen]byte
type request struct {
	op     uint8
	seq    uint32
	handle int32
	flags  uint32
	offset int64
	length int64
	path   string
	data   []byte
	// tail is sent after data as the rest of the payload, each segment's
	// bytes straight from the caller's buffer: an opWritev frame is its
	// segment table (data) followed by the segments. The parser never sets
	// it; a received payload is all in data.
	tail []writeSeg
}

// dataLen is the payload length on the wire: data, then every tail segment.
func (r *request) dataLen() int {
	n := len(r.data)
	for _, s := range r.tail {
		n += len(s.data)
	}
	return n
}

// frameWriter is a buffered sink that lends its free space, so a frame
// header is appended in place rather than built in an array that escapes
// through io.Writer, one allocation per frame. *bufio.Writer and
// *bytes.Buffer both qualify.
type frameWriter interface {
	io.Writer
	io.StringWriter
	AvailableBuffer() []byte
}

// writeRequest writes one request frame. Payload bytes go through w as
// they are: a segment too large for w's free space bypasses the buffer,
// smaller ones coalesce in it.
func writeRequest(w frameWriter, r *request) error {
	dataLen := r.dataLen()
	if dataLen > MaxChunk {
		return fmt.Errorf("%w: request payload %d exceeds max %d", ErrInvalid, dataLen, MaxChunk)
	}
	if len(r.path) > maxPathLen {
		// Symmetric with the data-length check: the peer's parser would
		// reject this as ErrProtocol and sever the connection, so refuse
		// before a byte hits the wire and keep the connection healthy.
		return fmt.Errorf("%w: path length %d exceeds max %d", ErrInvalid, len(r.path), maxPathLen)
	}
	hdr := binary.BigEndian.AppendUint16(w.AvailableBuffer(), reqMagic)
	hdr = append(hdr, protoVer, r.op)
	hdr = binary.BigEndian.AppendUint32(hdr, r.seq)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(r.handle))
	hdr = binary.BigEndian.AppendUint32(hdr, r.flags)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(r.offset))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(r.length))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(r.path)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(dataLen))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(r.path) > 0 {
		if _, err := w.WriteString(r.path); err != nil {
			return err
		}
	}
	if len(r.data) > 0 {
		if _, err := w.Write(r.data); err != nil {
			return err
		}
	}
	for _, s := range r.tail {
		if _, err := w.Write(s.data); err != nil {
			return err
		}
	}
	return nil
}

// peekHeader returns the next n bytes of r from r's own buffer, so reading
// a frame header allocates nothing; the caller parses them, then discards
// them. A stream that ends inside the header reports io.ErrUnexpectedEOF,
// as io.ReadFull would.
func peekHeader(r *bufio.Reader, n int) ([]byte, error) {
	hdr, err := r.Peek(n)
	if err == io.EOF && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return hdr, err
}

func readRequest(r *bufio.Reader) (*request, error) {
	hdr, err := peekHeader(r, reqHeaderSize)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != reqMagic {
		return nil, fmt.Errorf("%w: bad request magic", ErrProtocol)
	}
	if hdr[2] != protoVer {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrProtocol, hdr[2])
	}
	req := &request{
		op:     hdr[3],
		seq:    binary.BigEndian.Uint32(hdr[4:]),
		handle: int32(binary.BigEndian.Uint32(hdr[8:])),
		flags:  binary.BigEndian.Uint32(hdr[12:]),
		offset: int64(binary.BigEndian.Uint64(hdr[16:])),
		length: int64(binary.BigEndian.Uint64(hdr[24:])),
	}
	pathLen := binary.BigEndian.Uint32(hdr[32:])
	dataLen := binary.BigEndian.Uint32(hdr[36:])
	if pathLen > maxPathLen || dataLen > MaxChunk {
		return nil, fmt.Errorf("%w: oversized request (path %d, data %d)", ErrProtocol, pathLen, dataLen)
	}
	if _, err := r.Discard(reqHeaderSize); err != nil {
		return nil, err
	}
	if pathLen > 0 {
		pb := getBuf(int(pathLen))
		if _, err := io.ReadFull(r, pb); err != nil {
			putBuf(pb)
			return nil, err
		}
		req.path = string(pb)
		putBuf(pb)
	}
	if dataLen > 0 {
		// Pooled: the server's request loop releases req.data once the
		// response is written (dispatch never retains payload bytes).
		req.data = getBuf(int(dataLen))
		if _, err := io.ReadFull(r, req.data); err != nil {
			putBuf(req.data)
			return nil, err
		}
	}
	return req, nil
}

// response is the wire form of one server reply.
//
//	magic   uint16
//	_       uint16 (pad)
//	seq     uint32
//	status  int32
//	value   int64
//	msgLen  uint32
//	dataLen uint32
//	msg     [msgLen]byte
//	data    [dataLen]byte
type response struct {
	seq    uint32
	status int32
	value  int64
	msg    string
	data   []byte // the payload, unless it was read into the caller's buffers
	// dataLen is the payload length on the wire, wherever the payload
	// went; writeResponse sends len(data) instead.
	dataLen int
}

func writeResponse(w frameWriter, resp *response) error {
	msg := resp.msg
	if len(msg) > maxMsgLen {
		// An err.Error() of any length can land here (statusIO carries
		// the text); the peer's parser rejects msgLen > maxMsgLen as
		// ErrProtocol, which would turn a benign status reply into a
		// sticky transport kill. Truncate instead of poisoning the
		// connection.
		msg = msg[:maxMsgLen]
	}
	hdr := binary.BigEndian.AppendUint16(w.AvailableBuffer(), respMagic)
	hdr = append(hdr, 0, 0)
	hdr = binary.BigEndian.AppendUint32(hdr, resp.seq)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(resp.status))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(resp.value))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(msg)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(resp.data)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(msg) > 0 {
		if _, err := w.WriteString(msg); err != nil {
			return err
		}
	}
	if len(resp.data) > 0 {
		if _, err := w.Write(resp.data); err != nil {
			return err
		}
	}
	return nil
}

// readResponseHeader reads a response's fixed header; its msg (msgLen
// bytes) and payload (resp.dataLen bytes) follow on r, for
// readResponseBody. The header names the call, so the reader can find
// where the payload goes before reading it.
func readResponseHeader(r *bufio.Reader) (resp response, msgLen int, err error) {
	hdr, err := peekHeader(r, respHeaderSize)
	if err != nil {
		return resp, 0, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != respMagic {
		return resp, 0, fmt.Errorf("%w: bad response magic", ErrProtocol)
	}
	resp = response{
		seq:    binary.BigEndian.Uint32(hdr[4:]),
		status: int32(binary.BigEndian.Uint32(hdr[8:])),
		value:  int64(binary.BigEndian.Uint64(hdr[12:])),
	}
	ml := binary.BigEndian.Uint32(hdr[20:])
	dl := binary.BigEndian.Uint32(hdr[24:])
	if ml > maxMsgLen || dl > MaxChunk {
		return resp, 0, fmt.Errorf("%w: oversized response", ErrProtocol)
	}
	resp.dataLen = int(dl)
	_, err = r.Discard(respHeaderSize)
	return resp, int(ml), err
}

// readResponseBody reads the msg and the payload (dataLen bytes) that
// follow a response header. The payload is scattered front to back over
// dst when the call named a destination, else read into a pooled buffer
// and returned (metadata replies, which copy what they keep and leave the
// buffer to the GC). A payload longer than dst holds is ErrProtocol: the
// server answered a different question than the one asked, and the stream
// cannot be trusted past it.
func readResponseBody(r io.Reader, msgLen, dataLen int, dst [][]byte) (msg string, data []byte, err error) {
	if msgLen > 0 {
		mb := getBuf(msgLen)
		if _, err := io.ReadFull(r, mb); err != nil {
			putBuf(mb)
			return "", nil, err
		}
		msg = string(mb)
		putBuf(mb)
	}
	if dst == nil {
		if dataLen == 0 {
			return msg, nil, nil
		}
		data = getBuf(dataLen)
		if _, err := io.ReadFull(r, data); err != nil {
			putBuf(data)
			return "", nil, err
		}
		return msg, data, nil
	}
	room := 0
	for _, d := range dst {
		room += len(d)
	}
	if dataLen > room {
		return "", nil, fmt.Errorf("%w: %d-byte reply to a %d-byte read", ErrProtocol, dataLen, room)
	}
	for _, d := range dst {
		if dataLen == 0 {
			break
		}
		d = d[:min(len(d), dataLen)]
		if _, err := io.ReadFull(r, d); err != nil {
			return "", nil, err
		}
		dataLen -= len(d)
	}
	return msg, nil, nil
}

// FileInfo is the stat result for a logical path.
type FileInfo struct {
	Path     string
	IsDir    bool
	Size     int64
	Modified int64 // unix nanos
	Resource string
}

func encodeFileInfo(fi *FileInfo) []byte {
	buf := make([]byte, 0, 32+len(fi.Path)+len(fi.Resource))
	var tmp [8]byte
	flag := byte(0)
	if fi.IsDir {
		flag = 1
	}
	buf = append(buf, flag)
	binary.BigEndian.PutUint64(tmp[:], uint64(fi.Size))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(fi.Modified))
	buf = append(buf, tmp[:]...)
	buf = appendString(buf, fi.Path)
	buf = appendString(buf, fi.Resource)
	return buf
}

func decodeFileInfo(b []byte) (*FileInfo, []byte, error) {
	if len(b) < 17 {
		return nil, nil, ErrProtocol
	}
	if b[0] > 1 {
		// The encoder only ever emits 0 or 1; anything else is framing
		// damage, not a deliberate flag.
		return nil, nil, ErrProtocol
	}
	fi := &FileInfo{IsDir: b[0] == 1}
	fi.Size = int64(binary.BigEndian.Uint64(b[1:]))
	fi.Modified = int64(binary.BigEndian.Uint64(b[9:]))
	var err error
	b = b[17:]
	if fi.Path, b, err = takeString(b); err != nil {
		return nil, nil, err
	}
	if fi.Resource, b, err = takeString(b); err != nil {
		return nil, nil, err
	}
	return fi, b, nil
}

// Vectored-write framing. An opWritev request carries several (offset, data)
// segments for one handle in a single round trip:
//
//	count uint32
//	count × { off int64, segLen uint32 }
//	concatenated payload bytes, in segment order
//
// The segment table is up front so the server can validate the whole vector
// before touching storage. Callers budget frames so the encoded form stays
// within MaxChunk (writevHdrSize + per-segment writevSegSize + payload).
const (
	writevHdrSize = 4  // count
	writevSegSize = 12 // off i64 + segLen u32
)

// writeSeg is one segment of a vectored write.
type writeSeg struct {
	off  int64
	data []byte
}

// encodeWritev encodes the segment table of an opWritev request,
// coalescing entries for segments that are contiguous on disk: the
// payload bytes concatenate either way, so adjacent stripes collapse into
// one run for free. The payload itself is not copied: the request carries
// segs as its tail, and writeRequest sends each segment from the caller's
// buffer after the table. The table is pooled; the caller releases it with
// putBuf once the frame is on the wire.
func encodeWritev(segs []writeSeg) []byte {
	runs := 0
	for i, s := range segs {
		if i == 0 || segs[i-1].off+int64(len(segs[i-1].data)) != s.off {
			runs++
		}
	}
	buf := getBuf(writevHdrSize + runs*writevSegSize)
	binary.BigEndian.PutUint32(buf[0:], uint32(runs))
	p := writevHdrSize - writevSegSize
	for i, s := range segs {
		if i > 0 && segs[i-1].off+int64(len(segs[i-1].data)) == s.off {
			binary.BigEndian.PutUint32(buf[p+8:], binary.BigEndian.Uint32(buf[p+8:])+uint32(len(s.data)))
			continue
		}
		p += writevSegSize
		binary.BigEndian.PutUint64(buf[p:], uint64(s.off))
		binary.BigEndian.PutUint32(buf[p+8:], uint32(len(s.data)))
	}
	return buf
}

// decodeWritev unpacks an opWritev payload. The frame already passed the
// wire parser's bounds, so malformed vector framing here is an argument
// error (ErrInvalid status reply) rather than connection damage. Returned
// segments alias b; callers must copy before b is released.
func decodeWritev(b []byte) ([]writeSeg, error) {
	if len(b) < writevHdrSize {
		return nil, fmt.Errorf("%w: writev frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty writev vector", ErrInvalid)
	}
	if int(count) > (len(b)-writevHdrSize)/writevSegSize {
		return nil, fmt.Errorf("%w: writev segment table truncated", ErrInvalid)
	}
	segs := make([]writeSeg, count)
	p := writevHdrSize
	var total int
	for i := range segs {
		segs[i].off = int64(binary.BigEndian.Uint64(b[p:]))
		segLen := binary.BigEndian.Uint32(b[p+8:])
		if segLen > MaxChunk {
			return nil, fmt.Errorf("%w: writev segment oversized", ErrInvalid)
		}
		if segs[i].off < 0 {
			return nil, fmt.Errorf("%w: negative writev offset", ErrInvalid)
		}
		total += int(segLen)
		p += writevSegSize
	}
	if len(b)-p != total {
		return nil, fmt.Errorf("%w: writev payload length mismatch", ErrInvalid)
	}
	for i := range segs {
		segLen := int(binary.BigEndian.Uint32(b[writevHdrSize+i*writevSegSize+8:]))
		segs[i].data = b[p : p+segLen]
		p += segLen
	}
	return segs, nil
}

// Vectored-read framing (list I/O). An opReadv request carries a vector of
// (offset, length) ranges for one handle:
//
//	count uint32
//	count × { off int64, rangeLen uint32 }
//
// The response concatenates the bytes of each range in request order. The
// server fills ranges front to back and stops at the first range that comes
// up short (EOF), so the client can scatter the reply unambiguously: every
// range before the short one is full, everything after it is absent. Callers
// budget frames so the total requested bytes stay within MaxChunk (the
// response must fit one chunk).
const (
	readvHdrSize = 4  // count
	readvSegSize = 12 // off i64 + rangeLen u32
)

// readSeg is one range of a vectored read.
type readSeg struct {
	off int64
	n   int
}

// encodeReadv packs ranges into an opReadv request payload, coalescing table
// entries for ranges that are contiguous on disk — the reply bytes
// concatenate either way, so adjacent stripes collapse into one run for
// free. The buffer is pooled; the caller releases it with putBuf once the
// frame is on the wire.
func encodeReadv(segs []readSeg) []byte {
	runs := make([]readSeg, 0, len(segs))
	for _, s := range segs {
		if k := len(runs) - 1; k >= 0 && runs[k].off+int64(runs[k].n) == s.off {
			runs[k].n += s.n
			continue
		}
		runs = append(runs, s)
	}
	buf := getBuf(readvHdrSize + len(runs)*readvSegSize)
	binary.BigEndian.PutUint32(buf[0:], uint32(len(runs)))
	p := readvHdrSize
	for _, r := range runs {
		binary.BigEndian.PutUint64(buf[p:], uint64(r.off))
		binary.BigEndian.PutUint32(buf[p+8:], uint32(r.n))
		p += readvSegSize
	}
	return buf
}

// decodeReadv unpacks an opReadv payload. The frame already passed the wire
// parser's bounds, so malformed vector framing here is an argument error
// (ErrInvalid status reply) rather than connection damage.
func decodeReadv(b []byte) ([]readSeg, error) {
	if len(b) < readvHdrSize {
		return nil, fmt.Errorf("%w: readv frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty readv vector", ErrInvalid)
	}
	if len(b)-readvHdrSize != int(count)*readvSegSize {
		return nil, fmt.Errorf("%w: readv range table length mismatch", ErrInvalid)
	}
	segs := make([]readSeg, count)
	p := readvHdrSize
	var total int64
	for i := range segs {
		segs[i].off = int64(binary.BigEndian.Uint64(b[p:]))
		rangeLen := binary.BigEndian.Uint32(b[p+8:])
		if segs[i].off < 0 {
			return nil, fmt.Errorf("%w: negative readv offset", ErrInvalid)
		}
		if rangeLen == 0 {
			return nil, fmt.Errorf("%w: empty readv range", ErrInvalid)
		}
		segs[i].n = int(rangeLen)
		total += int64(rangeLen)
		p += readvSegSize
	}
	if total > MaxChunk {
		return nil, fmt.Errorf("%w: readv reply would exceed MaxChunk", ErrInvalid)
	}
	return segs, nil
}

func appendString(buf []byte, s string) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, ErrProtocol
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, ErrProtocol
	}
	return string(b[:n]), b[n:], nil
}

// Authenticated-handshake blob, carried in opConnect's data field (legacy
// anonymous connects send no data, so the layout of the fixed request
// header is unchanged):
//
//	tenantLen uint32
//	tenantID  [tenantLen]byte
//	proofLen  uint32
//	proof     [proofLen]byte   // HMAC-SHA256 over (tenantID, user)
//
// Both fields are length-framed inside an already length-framed request
// body, so a malformed blob can fail decoding but can never desync the
// stream — the server reads exactly dataLen bytes either way.
const (
	// maxTenantLen bounds the tenant ID field of an auth blob.
	maxTenantLen = 256
	// maxProofLen bounds the key-proof field; large enough for any HMAC
	// the registry might use (SHA-256 today = 32 bytes).
	maxProofLen = 64
)

// encodeAuth serializes a connect auth blob.
func encodeAuth(tenantID string, proof []byte) []byte {
	buf := make([]byte, 0, 8+len(tenantID)+len(proof))
	buf = appendString(buf, tenantID)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(proof)))
	buf = append(buf, tmp[:]...)
	return append(buf, proof...)
}

// decodeAuth parses a connect auth blob. Errors wrap ErrProtocol (framing)
// or ErrInvalid (bounds); the caller converts either into a terminal auth
// failure on the wire.
func decodeAuth(b []byte) (tenantID string, proof []byte, err error) {
	tenantID, rest, err := takeString(b)
	if err != nil {
		return "", nil, fmt.Errorf("%w: auth blob tenant id", ErrProtocol)
	}
	if len(tenantID) == 0 || len(tenantID) > maxTenantLen {
		return "", nil, fmt.Errorf("%w: auth tenant id length %d", ErrInvalid, len(tenantID))
	}
	if len(rest) < 4 {
		return "", nil, fmt.Errorf("%w: auth blob truncated before proof", ErrProtocol)
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if n > maxProofLen {
		return "", nil, fmt.Errorf("%w: auth proof length %d exceeds max %d", ErrInvalid, n, maxProofLen)
	}
	if uint32(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: auth proof truncated", ErrProtocol)
	}
	if uint32(len(rest)) > n {
		return "", nil, fmt.Errorf("%w: %d trailing bytes after auth proof", ErrProtocol, uint32(len(rest))-n)
	}
	// Copy: the request data buffer is pooled and recycled after dispatch.
	return tenantID, append([]byte(nil), rest[:n]...), nil
}
