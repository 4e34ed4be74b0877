package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/bufpool"
	"semplar/internal/trace"
)

// ErrClosed is returned for operations on a closed shaped connection.
var ErrClosed = errors.New("netsim: connection closed")

// chunkSize is the granularity at which writes are serialized through the
// limiters, small enough that concurrent streams interleave fairly. A chunk
// serializes in about as long as a wait takes to wake (100 µs on a 655 MB/s
// campus stream, against tens of µs of wake-up delay, or ~1 ms on the Go
// timer fallback), so a Conn paces its chunks with a Pacer.
const chunkSize = 64 << 10

// chunkPool holds the copies Write queues toward the peer. A chunk goes
// back when the peer's reader has drained it; a segment dropped by
// closeRead is left to the GC. The inflight window counts bytes, not
// capacity, so the class ladder keeps a short write from pinning a whole
// chunk: above 512 B a buffer is at most 8× its contents. The pool is
// built on first use, so a process that never writes to a Conn runs
// nothing for it at package load.
var (
	chunkPoolOnce sync.Once
	chunkPool     *bufpool.Pool
)

func chunks() *bufpool.Pool {
	chunkPoolOnce.Do(func() { chunkPool = bufpool.New(512, 4<<10, 16<<10, chunkSize) })
	return chunkPool
}

// getBuf and putBuf are the package's pool entry points; the pooluse lint
// rule tracks buffer ownership by these names.
func getBuf(n int) []byte { return chunks().Get(n) }
func putBuf(b []byte)     { chunks().Put(b) }

// maxInflight bounds the bytes buffered between a sender and its peer's
// reader, standing in for the TCP send/receive buffers. Writers block once
// the peer falls this far behind, which is the flow control that keeps a
// fast producer from absorbing an entire file into memory.
const maxInflight = 4 << 20

type segment struct {
	data []byte    // not yet read
	buf  []byte    // the pooled chunk data is a tail of, released once drained
	at   time.Time // earliest delivery time (send completion + latency)
}

// halfPipe is the receive queue of one direction of a Conn.
type halfPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals segs/closed/rerr changes; immutable after newHalfPipe
	segs     []segment  // guarded by mu
	buffered int        // guarded by mu; bytes queued and not yet read
	closed   bool       // guarded by mu; write side closed: drain then EOF
	rerr     error      // guarded by mu; read side closed: fail immediately
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	for {
		if h.rerr != nil {
			err := h.rerr // snapshot under mu: closeRead mutates rerr concurrently
			h.mu.Unlock()
			return 0, err
		}
		if len(h.segs) > 0 {
			arrived := now()
			if head := h.segs[0]; head.at.After(arrived) {
				// Head not yet "arrived": wait out the latency
				// without holding the lock.
				h.mu.Unlock()
				waitUntil(head.at)
				h.mu.Lock()
				continue
			}
			// Drain every segment that has already arrived, so a
			// large read pays at most one latency wait.
			n := 0
			for n < len(p) && len(h.segs) > 0 && !h.segs[0].at.After(arrived) {
				seg := h.segs[0]
				c := copy(p[n:], seg.data)
				n += c
				if c == len(seg.data) {
					putBuf(seg.buf)
					h.segs[0] = segment{}
					h.segs = h.segs[1:]
				} else {
					h.segs[0].data = seg.data[c:]
				}
			}
			h.buffered -= n
			h.cond.Broadcast() // wake writers blocked on flow control
			h.mu.Unlock()
			return n, nil
		}
		if h.closed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		h.cond.Wait()
	}
}

// push enqueues seg for delivery, blocking while the inflight window is
// full. It reports false if the receiving side has been closed, and whether
// it had to block.
func (h *halfPipe) push(seg segment) (ok, blocked bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.buffered >= maxInflight && h.rerr == nil && !h.closed {
		blocked = true
		h.cond.Wait()
	}
	if h.rerr != nil || h.closed {
		return false, blocked
	}
	h.segs = append(h.segs, seg)
	h.buffered += len(seg.data)
	h.cond.Broadcast()
	return true, blocked
}

func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) closeRead(err error) {
	h.mu.Lock()
	h.rerr = err
	h.segs = nil
	h.buffered = 0
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Conn is one endpoint of a shaped duplex pipe. It implements net.Conn so
// the SRB client and server run unchanged over real TCP or the simulator.
type Conn struct {
	name    string
	recv    *halfPipe // data arriving at this endpoint
	peer    *halfPipe // data departing toward the other endpoint
	latency time.Duration
	lims    []Stage // serialization stages on the send path
	jitter  *Jitter // optional extra delivery delay
	pace    Pacer   // the sender's schedule; Write calls are sequential

	// spike, when non-nil, points at a shared extra one-way latency in
	// nanoseconds added to every delivery (a routing flap / congestion
	// event injected by the chaos scheduler). Immutable after Dial; the
	// pointed-at value is atomic.
	spike *atomic.Int64

	faultMu     sync.Mutex
	faultArmed  bool          // guarded by faultMu
	faultBudget int           // guarded by faultMu
	faultMode   FaultMode     // guarded by faultMu
	faultFired  chan struct{} // guarded by faultMu
	stalled     bool          // guarded by faultMu

	closeOnce sync.Once
	onClose   func()

	// Trace hookup, set by Network.Dial before the conn is handed out.
	tr    *trace.Tracer
	txCtr string // silent counter name for bytes sent from this endpoint
}

var _ net.Conn = (*Conn)(nil)

// Pipe returns a connected pair of shaped endpoints. Data written on a
// flows to b after being serialized through aToB's limiters plus the
// one-way latency, and symmetrically for b.
func Pipe(latency time.Duration, aToB, bToA []Stage) (a, b *Conn) {
	ab := newHalfPipe() // data heading to b
	ba := newHalfPipe() // data heading to a
	a = &Conn{name: "a", recv: ba, peer: ab, latency: latency, lims: aToB}
	b = &Conn{name: "b", recv: ab, peer: ba, latency: latency, lims: bToA}
	return a, b
}

// Read reads delivered bytes, blocking until data arrives or the peer
// closes the connection.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return c.recv.read(p)
}

// Write shapes p through the send-path limiters in chunkSize pieces, each
// reserved at the model completion of the one before, and schedules each
// piece for delivery one latency after its own scheduled completion.
func (c *Conn) Write(p []byte) (int, error) {
	begin := now()
	at := c.pace.start()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > chunkSize {
			n = chunkSize
		}
		at = at.Add(reserveAll(c.lims, n, at))
		c.pace.waitUntil(at)
		// Pacing credit may schedule a chunk before this Write began;
		// delivering it that early would break causality.
		sent := at
		if sent.Before(begin) {
			sent = begin
		}
		proceed, stalled := c.consumeFaultBudget(n)
		if !proceed {
			if stalled {
				// Black hole: pretend the write succeeded.
				p = p[n:]
				total += n
				continue
			}
			return total, ErrClosed
		}
		data := getBuf(n)
		copy(data, p[:n])
		oneWay := c.latency + c.jitter.delay()
		if c.spike != nil {
			oneWay += time.Duration(c.spike.Load())
		}
		ok, blocked := c.peer.push(segment{data: data, buf: data, at: sent.Add(oneWay)})
		if !ok {
			putBuf(data)
			return total, ErrClosed
		}
		if blocked {
			// The link idled while the peer's window was full: the next
			// chunk starts from now, not back to back with this one.
			at = c.pace.start()
		}
		c.tr.Count(c.txCtr, int64(n))
		p = p[n:]
		total += n
	}
	return total, nil
}

// Close tears down both directions at this endpoint: the peer drains what
// was already sent and then sees EOF; local reads fail immediately.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.peer.closeWrite()
		c.recv.closeRead(ErrClosed)
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// OnClose registers a hook invoked once when the connection closes.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return simAddr("sim:" + c.name) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return simAddr("sim:peer") }

// SetDeadline is accepted but not enforced; the simulator's traffic always
// progresses, so deadlines are unnecessary for the protocols built on it.
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn as a no-op.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn as a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
