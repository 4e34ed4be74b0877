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
	"slices"
	"time"
)

// Protocol constants.
const (
	reqMagic  = 0x5242 // "RB"
	respMagic = 0x5243
	protoVer  = 1

	reqHeaderSize  = 40
	respHeaderSize = 28

	// MaxChunk bounds the data one request moves and the payload of one
	// response; larger transfers are split by the client.
	MaxChunk = 4 << 20

	// maxReqData bounds the payload of one request: a full MaxChunk
	// segment behind its one-entry opWritev table, so a contiguous chunk
	// still travels in one frame.
	maxReqData = MaxChunk + oneEntryTable

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
	_ // 5: retired (the scalar read, now a one-range opReadv); never reuse
	_ // 6: retired (the scalar write, now a one-segment opWritev); never reuse
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

	numStatus // one past the last code; never sent
)

// errRow is one row of the srb error table: an error, the wire status that
// carries it, and whether an operation that failed with it may be reissued.
type errRow struct {
	err       error
	status    int32 // noStatus: the error never crosses the wire
	retryable bool  // transient or terminal
}

const (
	noStatus = statusOK

	transient = true  // the operation may be reissued
	terminal  = false // replay cannot help
)

// errTable is the one classification of srb errors: statusToErr,
// errToStatus and Retryable all read it. Every srb error is declared
// through newErr, which adds its row, so no error exists unclassified.
// The two io rows are results, not failures: io.EOF is a short read
// (transport EOFs are wrapped in ErrTransport), and io.ErrShortWrite is a
// short write the server acknowledged without error (e.g. a full device),
// where blind replay would likely loop.
var errTable = []errRow{
	{io.EOF, noStatus, terminal},
	{io.ErrShortWrite, noStatus, terminal},
}

// newErr declares an srb error and adds its row to errTable.
func newErr(msg string, status int32, retryable bool) error {
	err := errors.New(msg)
	errTable = append(errTable, errRow{err, status, retryable})
	return err
}

// Errors corresponding to the wire status codes. Each is a definitive
// server statement, so replay cannot help, except where noted.
var (
	ErrNotFound  = newErr("srb: no such file or collection", statusNotFound, terminal)
	ErrExists    = newErr("srb: file exists", statusExists, terminal)
	ErrIsDir     = newErr("srb: is a collection", statusIsDir, terminal)
	ErrNotDir    = newErr("srb: not a collection", statusNotDir, terminal)
	ErrBadHandle = newErr("srb: bad file handle", statusBadHandle, terminal)
	ErrInvalid   = newErr("srb: invalid argument", statusInvalid, terminal)
	ErrNotEmpty  = newErr("srb: collection not empty", statusNotEmpty, terminal)
	ErrIO        = newErr("srb: i/o error", statusIO, terminal)
	ErrPerm      = newErr("srb: permission denied", statusPerm, terminal)
	ErrProtocol  = newErr("srb: protocol error", noStatus, terminal)

	// ErrServerBusy is the overload-shedding reply: the server is healthy
	// but at its connection or in-flight-op limit (or draining for
	// shutdown) and refused the request without starting it. Unlike every
	// other status error it is transient — srb.Retryable classifies it as
	// retryable, so the client's backoff absorbs shed load transparently,
	// and the replay does not need a fresh connection.
	ErrServerBusy = newErr("srb: server busy", statusBusy, transient)

	// ErrAuthFailed is the terminal handshake refusal: the connect did not
	// carry a valid tenant proof (missing, unknown tenant, or bad key).
	// The server closes the connection after sending it, so retrying on
	// the same credentials can never succeed.
	ErrAuthFailed = newErr("srb: authentication failed", statusAuthFailed, terminal)

	// ErrRateLimited is the per-tenant fair-share shed: the tenant is over
	// its token bucket, the request was refused without being started, and
	// the response carries a retry-after hint. Transient — like
	// ErrServerBusy, but scoped to one tenant so other tenants keep
	// flowing. Wrapped as *RateLimitedError when a hint is present.
	ErrRateLimited = newErr("srb: tenant rate limited", statusRateLimited, transient)

	// ErrQuotaExceeded is the terminal storage-quota refusal: the write
	// would push the tenant's stored bytes over its quota. Retrying cannot
	// help until the tenant deletes data, so it is classified terminal.
	ErrQuotaExceeded = newErr("srb: tenant quota exceeded", statusQuotaExceeded, terminal)
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
// nanoseconds; every other status ignores it. Unknown codes (a newer
// server) degrade to the generic I/O error.
func statusToErr(st int32, msg string, value int64) error {
	switch st {
	case statusOK:
		return nil
	case statusRateLimited:
		var after time.Duration
		if value > 0 {
			after = time.Duration(value)
		}
		return &RateLimitedError{RetryAfter: after, msg: msg}
	}
	base := ErrIO
	for _, r := range errTable {
		if r.status == st {
			base = r.err
			break
		}
	}
	if msg != "" {
		return fmt.Errorf("%w: %s", base, msg)
	}
	return base
}

// errToStatus converts a server-side error to its wire status. An error
// without a status of its own, ErrIO included, goes out as statusIO
// carrying its text. A rate-limit hint does not travel here: the server's
// shed path sets the value field directly (see rateLimitedResp), and this
// mapping covers errors bubbled up from inner layers.
func errToStatus(err error) (int32, string) {
	if err == nil {
		return statusOK, ""
	}
	for _, r := range errTable {
		if r.status != noStatus && r.status != statusIO && errors.Is(err, r.err) {
			return r.status, ""
		}
	}
	return statusIO, err.Error()
}

// request is the wire form of one client call.
//
//	magic   uint16
//	version uint8
//	opcode  uint8
//	seq     uint32
//	handle  int32
//	flags   uint32
//	_       int64 (reserved: written as zero, read by no op)
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
	length int64
	path   string
	data   []byte
}

// dataLen is the payload length on the wire of r sent with tail: data,
// then every tail segment. The tail travels beside the request, not in it,
// so the caller's segment array does not escape with the request's fields.
func (r *request) dataLen(tail []writeSeg) int {
	n := len(r.data)
	for _, s := range tail {
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

// writeRequest writes one request frame, its payload data followed by
// tail: an opWritev frame is its segment table (data) followed by the
// segments. Header, path and data are copied into w's free space and go
// out as one Write, so data need not outlive the call (a one-entry table
// can live on the caller's stack). Each tail segment's bytes go straight
// from the caller's buffer: one too large for w's free space bypasses the
// buffer, smaller ones coalesce in it. The parser puts a received payload
// all in data.
func writeRequest(w frameWriter, r *request, tail ...writeSeg) error {
	dataLen := r.dataLen(tail)
	if dataLen > maxReqData {
		return fmt.Errorf("%w: request payload %d exceeds max %d", ErrInvalid, dataLen, maxReqData)
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
	hdr = binary.BigEndian.AppendUint64(hdr, 0) // reserved
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(r.length))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(r.path)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(dataLen))
	hdr = append(hdr, r.path...)
	hdr = append(hdr, r.data...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, s := range tail {
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
		length: int64(binary.BigEndian.Uint64(hdr[24:])),
	}
	pathLen := binary.BigEndian.Uint32(hdr[32:])
	dataLen := binary.BigEndian.Uint32(hdr[36:])
	if pathLen > maxPathLen || dataLen > maxReqData {
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

// Vectored framing: opWritev and opReadv, the only data ops on the wire.
// A contiguous transfer is a one-entry vector. Both requests open with the
// same segment table, one entry per extent on disk:
//
//	count uint32
//	count × { off int64, len uint32 }
//
// An opWritev payload follows its table with the concatenated segment
// bytes, in table order; the table is up front so the server can validate
// the whole vector before touching storage. An opReadv request is its
// table alone, with the sum of its ranges in the header's length word, and
// its reply concatenates the bytes of each range in table order. The
// server fills ranges front to back and stops at the first range that comes
// up short (EOF), so the client can scatter the reply unambiguously: every
// range before the short one is full, everything after it is absent.
//
// Callers budget frames so a write's encoded form stays within maxReqData
// and a read's reply within MaxChunk.
const (
	vecHdrSize   = 4  // count
	vecEntrySize = 12 // off i64 + len u32

	// oneEntryTable is the table of a contiguous transfer.
	oneEntryTable = vecHdrSize + vecEntrySize
)

// writeSeg is one segment of a vectored write.
type writeSeg struct {
	off  int64
	data []byte
}

// readSeg is one range of a vectored read.
type readSeg struct {
	off int64
	n   int
}

func (s writeSeg) extent() (int64, int) { return s.off, len(s.data) }
func (s readSeg) extent() (int64, int)  { return s.off, s.n }

// encodeTable encodes the segment table of an opWritev or opReadv request,
// coalescing entries for extents that are contiguous on disk: the payload
// (or reply) bytes concatenate either way, so adjacent stripes collapse
// into one run for free. A write's payload is not copied: its segments
// travel as the request's tail, and writeRequest sends each one from the
// caller's buffer after the table. The table is built in stack when it
// fits (a one-entry table, for a contiguous transfer), else in a pooled
// buffer, returned also as pooled for the caller to release with putBuf
// once the frame is on the wire.
func encodeTable[S interface{ extent() (int64, int) }](stack []byte, segs []S) (table, pooled []byte) {
	runs := 0
	var end int64
	for i, s := range segs {
		off, n := s.extent()
		if i == 0 || end != off {
			runs++
		}
		end = off + int64(n)
	}
	if n := vecHdrSize + runs*vecEntrySize; n <= cap(stack) {
		table = stack[:n]
	} else {
		pooled = getBuf(n)
		table = pooled
	}
	binary.BigEndian.PutUint32(table[0:], uint32(runs))
	p := vecHdrSize - vecEntrySize
	for i, s := range segs {
		off, n := s.extent()
		if i > 0 && end == off {
			binary.BigEndian.PutUint32(table[p+8:], binary.BigEndian.Uint32(table[p+8:])+uint32(n))
		} else {
			p += vecEntrySize
			binary.BigEndian.PutUint64(table[p:], uint64(off))
			binary.BigEndian.PutUint32(table[p+8:], uint32(n))
		}
		end = off + int64(n)
	}
	return table, pooled
}

// decodeWritev unpacks an opWritev payload into into's storage, so a
// caller's one-entry array holds a one-segment frame without allocating.
// The frame already passed the wire parser's bounds, so malformed vector
// framing here is an argument error (ErrInvalid status reply) rather than
// connection damage. Returned segments alias b; callers must copy before b
// is released.
func decodeWritev(b []byte, into []writeSeg) ([]writeSeg, error) {
	if len(b) < vecHdrSize {
		return nil, fmt.Errorf("%w: writev frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty writev vector", ErrInvalid)
	}
	if int(count) > (len(b)-vecHdrSize)/vecEntrySize {
		return nil, fmt.Errorf("%w: writev segment table truncated", ErrInvalid)
	}
	segs := slices.Grow(into[:0], int(count))
	p := vecHdrSize
	var total int
	for range count {
		off := int64(binary.BigEndian.Uint64(b[p:]))
		segLen := binary.BigEndian.Uint32(b[p+8:])
		if segLen > MaxChunk {
			return nil, fmt.Errorf("%w: writev segment oversized", ErrInvalid)
		}
		if off < 0 {
			return nil, fmt.Errorf("%w: negative writev offset", ErrInvalid)
		}
		segs = append(segs, writeSeg{off: off})
		total += int(segLen)
		p += vecEntrySize
	}
	if len(b)-p != total {
		return nil, fmt.Errorf("%w: writev payload length mismatch", ErrInvalid)
	}
	for i := range segs {
		segLen := int(binary.BigEndian.Uint32(b[vecHdrSize+i*vecEntrySize+8:]))
		segs[i].data = b[p : p+segLen]
		p += segLen
	}
	return segs, nil
}

// decodeReadv unpacks an opReadv payload into into's storage, as
// decodeWritev does. The frame already passed the wire parser's bounds, so
// malformed vector framing here is an argument error (ErrInvalid status
// reply) rather than connection damage.
func decodeReadv(b []byte, into []readSeg) ([]readSeg, error) {
	if len(b) < vecHdrSize {
		return nil, fmt.Errorf("%w: readv frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty readv vector", ErrInvalid)
	}
	if len(b)-vecHdrSize != int(count)*vecEntrySize {
		return nil, fmt.Errorf("%w: readv range table length mismatch", ErrInvalid)
	}
	segs := slices.Grow(into[:0], int(count))
	p := vecHdrSize
	var total int64
	for range count {
		off := int64(binary.BigEndian.Uint64(b[p:]))
		rangeLen := binary.BigEndian.Uint32(b[p+8:])
		if off < 0 {
			return nil, fmt.Errorf("%w: negative readv offset", ErrInvalid)
		}
		if rangeLen == 0 {
			return nil, fmt.Errorf("%w: empty readv range", ErrInvalid)
		}
		segs = append(segs, readSeg{off: off, n: int(rangeLen)})
		total += int64(rangeLen)
		p += vecEntrySize
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
