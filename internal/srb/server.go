package srb

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/mcat"
	"semplar/internal/storage"
	"semplar/internal/tenant"
	"semplar/internal/trace"
)

// ErrServerClosed is returned by Serve after Shutdown begins: the listener
// stopped because the server was asked to, not because it failed
// (net/http.ErrServerClosed style). A call that raced the drain never
// completed, so it is transient: a replay elsewhere is safe.
var ErrServerClosed = newErr("srb: server closed", noStatus, transient)

// ServerStats counts server activity; all fields are read with Snapshot.
type ServerStats struct {
	Connections   int64
	Requests      int64
	BytesRead     int64 // data served to clients
	BytesWritten  int64 // data committed from clients
	ActiveConns   int64 // admitted connections still being served
	ProtocolError int64
	OpenHandles   int64 // file handles currently open across all sessions
	Shed          int64 // requests refused with ErrServerBusy (overload or drain)
	Drained       int64 // in-flight ops completed during Shutdown before their conn closed
	RateLimited   int64 // requests refused with ErrRateLimited (per-tenant fair-share shed)
	AuthFailed    int64 // handshakes refused with ErrAuthFailed
}

// Limits bounds server admission. Zero values mean unlimited. Past a
// limit the server sheds work with ErrServerBusy instead of queueing it,
// relying on the client's retry/backoff to spread the load out in time.
// Set via SetLimits before serving.
type Limits struct {
	// MaxConns caps concurrently served connections. A connection over
	// the cap has its first request answered with ErrServerBusy and is
	// closed, which surfaces as a transient dial error client-side.
	MaxConns int
	// MaxInflight caps requests executing at once across all
	// connections. A request over the cap is answered with ErrServerBusy
	// but the connection stays open: busy is a status error, not a
	// transport error, so the client retries on the same connection.
	MaxInflight int
}

// connState is the server's drain-time view of one connection. busy flips
// around each dispatch under Server.connMu so Shutdown can tell idle
// connections (closed immediately) from ones mid-request (left to finish
// their op and exit on their own).
type connState struct {
	conn net.Conn
	busy bool // protected by Server.connMu
}

// Server is the SRB daemon: it owns an MCAT catalog and one or more storage
// resources and services any number of concurrent client connections, each
// handled by its own goroutine (the SUN Fire 15000 of the simulation).
type Server struct {
	cat        *mcat.Catalog
	mu         sync.RWMutex
	resources  map[string]storage.Store
	defaultRes string

	// createMu makes create-or-open one step: see session.lookupOrCreate.
	createMu sync.Mutex

	handleSeq int64

	limits   Limits       // immutable after first Serve/ServeConn; see SetLimits
	inflight atomic.Int64 // requests currently dispatching

	connMu    sync.Mutex
	listeners map[net.Listener]struct{} // guarded by connMu
	conns     map[net.Conn]*connState   // guarded by connMu
	draining  bool                      // guarded by connMu
	drainDone chan struct{}             // guarded by connMu; closed when the last conn exits

	stats ServerStats

	tracer  atomic.Pointer[trace.Tracer]
	tenants atomic.Pointer[tenant.Registry]
}

// SetLimits configures admission control. Call it before serving: the
// limits are read without synchronization on the request path.
func (s *Server) SetLimits(l Limits) { s.limits = l }

// SetTenants attaches a tenant registry, making authentication mandatory:
// every connect must carry a valid tenant proof or the connection is
// refused with a terminal auth failure. Tenant storage quotas are pushed
// into the catalog, keyed by tenant ID (register all tenants before
// calling). A registry outlives any one Server — sharing it across
// restarts keeps bucket state and per-tenant counters continuous, so an
// abusive tenant cannot reset its bucket by crashing the server. nil
// restores anonymous operation.
func (s *Server) SetTenants(reg *tenant.Registry) {
	s.tenants.Store(reg)
	if reg == nil {
		return
	}
	for _, id := range reg.Names() {
		if t, ok := reg.Lookup(id); ok {
			s.cat.SetQuota(id, t.Limits().QuotaBytes)
		}
	}
}

// Tenants returns the attached tenant registry (nil when anonymous).
func (s *Server) Tenants() *tenant.Registry { return s.tenants.Load() }

// SetTracer records every dispatched request as a span on the server
// process row of tr (one trace lane per connection) and feeds the
// srb.server.dispatch latency histogram. Safe to call at any time; nil
// disables tracing for connections accepted afterwards.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.tracer.Store(tr)
}

// NewServer returns a server with a fresh catalog and no resources; add at
// least one with AddResource before serving.
func NewServer() *Server {
	return &Server{
		cat:       mcat.New(),
		resources: make(map[string]storage.Store),
	}
}

// NewMemServer is a convenience: a server with one in-memory resource named
// "mem", optionally metered by the device spec.
func NewMemServer(spec storage.DeviceSpec) *Server {
	s := NewServer()
	var st storage.Store = storage.NewMemStore()
	if spec.ReadRate > 0 || spec.WriteRate > 0 || spec.OpLatency > 0 {
		st = storage.WithDevice(st, spec)
	}
	s.AddResource("mem", "memory", st)
	return s
}

// AddResource registers a storage resource. The first added becomes the
// default resource for new files.
func (s *Server) AddResource(name, kind string, st storage.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources[name] = st
	s.cat.RegisterResource(mcat.ResourceInfo{Name: name, Kind: kind, Host: "srbd"})
	if s.defaultRes == "" {
		s.defaultRes = name
	}
}

// Catalog exposes the MCAT (used by tests and tools).
func (s *Server) Catalog() *mcat.Catalog { return s.cat }

// Resource returns the storage store registered under name, or nil if no
// such resource exists. Federation tests use it to inspect (and corrupt)
// one server's physical objects without going through the protocol.
func (s *Server) Resource(name string) storage.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resources[name]
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connections:   atomic.LoadInt64(&s.stats.Connections),
		Requests:      atomic.LoadInt64(&s.stats.Requests),
		BytesRead:     atomic.LoadInt64(&s.stats.BytesRead),
		BytesWritten:  atomic.LoadInt64(&s.stats.BytesWritten),
		ActiveConns:   atomic.LoadInt64(&s.stats.ActiveConns),
		ProtocolError: atomic.LoadInt64(&s.stats.ProtocolError),
		OpenHandles:   atomic.LoadInt64(&s.stats.OpenHandles),
		Shed:          atomic.LoadInt64(&s.stats.Shed),
		Drained:       atomic.LoadInt64(&s.stats.Drained),
		RateLimited:   atomic.LoadInt64(&s.stats.RateLimited),
		AuthFailed:    atomic.LoadInt64(&s.stats.AuthFailed),
	}
}

// Serve accepts connections from l until it is closed, spawning a goroutine
// per connection. It returns ErrServerClosed if the listener stopped
// because of Shutdown, and the listener's own error otherwise.
func (s *Server) Serve(l net.Listener) error {
	if !s.trackListener(l) {
		return ErrServerClosed
	}
	defer s.untrackListener(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Shutdown drains the server net/http-style: it stops accepting (Serve
// returns ErrServerClosed), closes idle connections, sheds any request
// that has not started dispatching with ErrServerBusy, and waits for
// in-flight operations to finish — each busy connection completes its
// current op, gets its response, and closes. If ctx expires first, the
// remaining connections are closed abruptly and ctx.Err() is returned.
// Shutdown may be called concurrently and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.draining = true
	if s.drainDone == nil {
		s.drainDone = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drainDone)
		}
	}
	done := s.drainDone
	for l := range s.listeners {
		//lint:allow errdrop -- listener teardown during drain; Serve reports ErrServerClosed
		l.Close()
	}
	s.listeners = nil
	// Close idle connections now; busy ones finish their in-flight op,
	// receive their response, and exit (ServeConn checks draining after
	// every response).
	for _, cs := range s.conns {
		if !cs.busy {
			//lint:allow errdrop -- closing an idle conn during drain; the peer sees EOF
			cs.conn.Close()
		}
	}
	s.connMu.Unlock()

	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for _, cs := range s.conns {
			//lint:allow errdrop -- forced teardown past the drain deadline
			cs.conn.Close()
		}
		s.connMu.Unlock()
		return ctx.Err()
	}
}

// trackListener registers a serving listener; it refuses once draining.
func (s *Server) trackListener(l net.Listener) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return false
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) untrackListener(l net.Listener) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.listeners, l)
}

func (s *Server) isDraining() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.draining
}

// trackConn admits a connection, refusing when draining or over MaxConns.
func (s *Server) trackConn(conn net.Conn) (*connState, bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return nil, false
	}
	if s.limits.MaxConns > 0 && len(s.conns) >= s.limits.MaxConns {
		return nil, false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	cs := &connState{conn: conn}
	s.conns[conn] = cs
	atomic.AddInt64(&s.stats.ActiveConns, 1)
	return cs, true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
	// Before the drain can complete, so Shutdown never returns with this
	// connection still counted active.
	atomic.AddInt64(&s.stats.ActiveConns, -1)
	// The last connection out completes the drain. drainDone cannot have
	// been closed already: Shutdown only closes it when no connections
	// were tracked, and no new ones are admitted while draining.
	if s.draining && len(s.conns) == 0 && s.drainDone != nil {
		close(s.drainDone)
	}
}

// beginOp marks cs busy for the drain sweep; it refuses (false) once
// draining so the request is shed rather than started.
func (s *Server) beginOp(cs *connState) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return false
	}
	cs.busy = true
	return true
}

// endOp clears busy and reports whether the server began draining while
// the op ran (the connection should close after its response is flushed).
func (s *Server) endOp(cs *connState) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	cs.busy = false
	return s.draining
}

// acquireOp admits one request under the MaxInflight cap.
func (s *Server) acquireOp() bool {
	max := int64(s.limits.MaxInflight)
	if max <= 0 {
		s.inflight.Add(1)
		return true
	}
	for {
		cur := s.inflight.Load()
		if cur >= max {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (s *Server) releaseOp() { s.inflight.Add(-1) }

// countShed records one refused request. The trace counter is silent and
// only touched on the fault path, so fault-free golden traces are stable.
func (s *Server) countShed() {
	atomic.AddInt64(&s.stats.Shed, 1)
	s.tracer.Load().Count("srb.server.shed_ops", 1)
}

func (s *Server) countDrained() {
	atomic.AddInt64(&s.stats.Drained, 1)
	s.tracer.Load().Count("srb.server.drained_ops", 1)
}

// countRateLimited records one request refused by a tenant bucket. Distinct
// from countShed so global overload and per-tenant fair-share shedding are
// separable in stats and traces.
func (s *Server) countRateLimited() {
	atomic.AddInt64(&s.stats.RateLimited, 1)
	s.tracer.Load().Count("srb.server.rate_limited_ops", 1)
}

func (s *Server) countAuthFailed() {
	atomic.AddInt64(&s.stats.AuthFailed, 1)
	s.tracer.Load().Count("srb.server.auth_failed", 1)
}

// rateLimitedResp builds the fair-share shed reply: a retryable status
// whose value field carries the bucket's retry-after hint in nanoseconds
// (errResp cannot be used — errToStatus has no channel for the hint).
func rateLimitedResp(retryAfter time.Duration) *response {
	return &response{status: statusRateLimited, value: int64(retryAfter)}
}

// admitTenant charges req against the session tenant's token buckets.
// Anonymous sessions (no registry attached) are unlimited. The charge is
// one op plus the bytes the request moves (bytesMoved), so a tenant's byte
// bucket meters both directions of its data flow.
func (s *Server) admitTenant(sess *session, req *request) (bool, *response) {
	t := sess.tenant
	if t == nil {
		return true, nil
	}
	reg := s.tenants.Load()
	if reg == nil {
		return true, nil
	}
	ok, wait := t.Admit(bytesMoved(req), reg.Now())
	if ok {
		return true, nil
	}
	s.countRateLimited()
	return false, rateLimitedResp(wait)
}

// bytesMoved is a request's byte cost: a write pays its frame payload, a
// read the sum of its ranges, which the request states in its length word
// and readv checks against its table. Every other op pays nothing; a
// truncate's length is a file size, not a transfer.
func bytesMoved(req *request) int64 {
	switch req.op {
	case opWritev:
		return int64(len(req.data))
	case opReadv:
		return min(max(req.length, 0), MaxChunk)
	}
	return 0
}

// shedConn answers exactly one request with ErrServerBusy and hangs up:
// the admission-refused path for connections over MaxConns or arriving
// during drain. The client sees the busy error on its dial handshake;
// Retryable classifies it as transient, so DialRetry backs off and tries
// again (against the restarted or less-loaded server).
func (s *Server) shedConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 4<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	req, err := readRequest(br)
	if err != nil {
		return
	}
	s.countShed()
	putBuf(req.data) // parser-pooled payload; the request is refused unread
	resp := errResp(ErrServerBusy)
	resp.seq = req.seq
	if err := writeResponse(bw, resp); err != nil {
		return
	}
	//lint:allow errdrop -- the refused conn closes right after; the flush error has no consumer
	bw.Flush()
}

// ServeConn services one client connection until EOF, protocol error,
// drain or admission refusal. Requests execute one at a time in arrival
// order; parsing runs ahead of execution (read-ahead), and a large response
// can still be in transmission while the next request executes
// (write-behind). It may be called directly with simulated connections.
func (s *Server) ServeConn(conn net.Conn) {
	atomic.AddInt64(&s.stats.Connections, 1)
	defer conn.Close()

	cs, admitted := s.trackConn(conn)
	if !admitted {
		s.shedConn(conn)
		return
	}
	defer s.untrackConn(conn)

	sess := &session{
		srv:   s,
		files: make(map[int32]*openFile),
	}
	defer sess.closeAll()

	tr := s.tracer.Load()
	lane := tr.NextID() // this connection's trace lane on the server row

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Read-ahead: a reader goroutine parses frames off the wire while this
	// goroutine executes them in arrival order, so frame parsing of request
	// N+1 overlaps the dispatch of request N and a pipelining client never
	// stalls on the server's turnaround. The queue is bounded: a client
	// that outruns dispatch by more than its depth backpressures into the
	// transport, exactly as before.
	reqCh := make(chan *request, readAheadDepth)
	done := make(chan struct{})
	defer close(done)
	var readErr error // written by the reader before close(reqCh)
	go func() {
		defer close(reqCh)
		for {
			req, err := readRequest(br)
			if err != nil {
				readErr = err
				return
			}
			select {
			case reqCh <- req:
			case <-done:
				putBuf(req.data) // executor is gone; recycle the orphan
				return
			}
		}
	}()

	// Write-behind: while one response of a burst is still being
	// transmitted, the executor already dispatches the next request, so the
	// storage I/O of request N+1 overlaps the wire time of response N.
	// Execution stays in arrival order, and wb.settle precedes every touch
	// of bw below, so at most one response is ever behind dispatch.
	wb := &writeBehind{bw: bw}
	defer wb.stop()

	// Drain bookkeeping runs at burst granularity: busy is set per request
	// (beginOp) but cleared (endOp) only at idle points, after the helper
	// has settled and the batched flush put every response of the burst on
	// the wire. The old guarantee — the drain sweep can never close a conn
	// between dispatch completion and the client receiving its reply —
	// holds unchanged, because a conn is "idle" only when it has no request
	// queued, no response in transmission and no response buffered.
	for req := range reqCh {
		atomic.AddInt64(&s.stats.Requests, 1)
		if !s.beginOp(cs) {
			// Draining: shed the request and hang up; the client's retry
			// lands on whatever replaces this server.
			s.countShed()
			putBuf(req.data)
			if wb.settle() != nil {
				return
			}
			resp := errResp(ErrServerBusy)
			resp.seq = req.seq
			if writeResponse(bw, resp) == nil {
				//lint:allow errdrop -- the conn closes right after; the flush error has no consumer
				bw.Flush()
			}
			return
		}
		var resp *response
		if !s.acquireOp() {
			// Over the in-flight cap: refuse without starting the op but
			// keep the connection — busy is a status error, not a transport
			// error, so the client retries on this same connection after
			// backing off.
			s.countShed()
			resp = errResp(ErrServerBusy)
		} else if ok, rlResp := s.admitTenant(sess, req); !ok {
			// Over the session tenant's token bucket: refuse without
			// starting the op, carrying the bucket's retry-after hint. The
			// connection stays open — rate-limited is a status error the
			// client backs off on, exactly like the global busy shed.
			resp = rlResp
			s.releaseOp()
		} else {
			// The dispatch span closes before the response is written, so its
			// events land while the client is still blocked on the reply —
			// server events nest deterministically inside the client's wire
			// span under a virtual clock.
			sp := tr.BeginServer("server", opName(req.op), lane)
			resp = sess.dispatch(req)
			if tr.Enabled() {
				tr.Observe("srb.server.dispatch", sp.End())
			}
			s.releaseOp()
		}
		resp.seq = req.seq
		putBuf(req.data) // dispatch copied what it kept; recycle the payload
		// The previous response must be wholly in bw before this one.
		if wb.settle() != nil {
			putBuf(resp.data)
			return
		}
		if len(reqCh) > 0 && len(resp.data) > bw.Available() {
			// More requests already parsed, and this payload overflows bw,
			// so writing it means waiting on the conn: let the helper do
			// that while the next request dispatches. Responses that fit
			// in bw are a copy, not a wait, and stay inline below.
			wb.send(resp)
			continue
		}
		// Whether or not the write succeeds, the response bytes are dead
		// after this point (copied into the buffered writer, or the conn
		// is unusable); recycle before bailing out on error.
		err := writeResponse(bw, resp)
		putBuf(resp.data)
		if err != nil {
			return
		}
		if resp.status == statusAuthFailed {
			// Terminal refusal: flush the response and hang up. The client
			// sees ErrAuthFailed on its handshake (or first op) and never
			// retries these credentials.
			//lint:allow errdrop -- the refused conn closes right after; the flush error has no consumer
			bw.Flush()
			return
		}
		if len(reqCh) > 0 {
			// More requests already parsed: batch this response with the
			// next ones and keep the conn marked busy, amortizing flushes
			// across the burst.
			continue
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if s.endOp(cs) {
			s.countDrained()
			return
		}
	}
	// Reads severed by Shutdown's idle-conn sweep are expected, not
	// protocol violations.
	if readErr != io.EOF && !s.isDraining() {
		atomic.AddInt64(&s.stats.ProtocolError, 1)
	}
}

// readAheadDepth bounds how many parsed-but-unexecuted requests one
// connection may queue server-side.
const readAheadDepth = 32

// writeBehind writes responses into a connection's buffered writer on a
// helper goroutine, one at a time. The executor owns bw whenever the
// helper is idle and calls settle before touching it. The helper starts on
// the first hand-off, so a connection that never has a request queued
// behind the one executing never starts it.
type writeBehind struct {
	bw   *bufio.Writer
	in   chan *response
	done chan error // one write result per hand-off; closed when the helper exits
	busy bool       // a hand-off has not been settled yet
}

// send hands resp to the helper, which writes it into bw and recycles its
// payload. The previous hand-off must have been settled.
func (w *writeBehind) send(resp *response) {
	if w.in == nil {
		w.in = make(chan *response)
		w.done = make(chan error, 1)
		go w.run()
	}
	w.in <- resp
	w.busy = true
}

// settle waits until the helper has finished the unsettled hand-off, if
// any, and returns that write's error.
func (w *writeBehind) settle() error {
	if !w.busy {
		return nil
	}
	w.busy = false
	return <-w.done
}

// stop ends the helper and returns once it has exited. ServeConn settles
// before every return, so the helper is idle here and exits at once.
func (w *writeBehind) stop() {
	if w.in == nil {
		return
	}
	close(w.in)
	for range w.done {
	}
}

func (w *writeBehind) run() {
	defer close(w.done)
	for resp := range w.in {
		err := writeResponse(w.bw, resp)
		putBuf(resp.data)
		w.done <- err
	}
}

type openFile struct {
	obj   storage.Object
	path  string
	flags uint32
}

type session struct {
	srv    *Server
	files  map[int32]*openFile
	user   string
	tenant *tenant.Tenant // non-nil once an authenticated connect succeeds
}

// owner is the catalog ownership label for files this session creates.
func (ss *session) owner() string {
	if ss.tenant != nil {
		return ss.tenant.ID
	}
	return ""
}

// closeAll releases every handle the client left open — the abrupt-
// disconnect path. Handles closed normally were already removed from the
// map by close(), so each object is closed exactly once either way.
func (ss *session) closeAll() {
	for _, f := range ss.files {
		//lint:allow errdrop -- session teardown after disconnect; no client left to report to
		f.obj.Close()
		atomic.AddInt64(&ss.srv.stats.OpenHandles, -1)
	}
	ss.files = nil
}

func (ss *session) dispatch(req *request) *response {
	// With a tenant registry attached, nothing but the connect handshake is
	// served to an unauthenticated session — a client skipping the
	// handshake gets the same terminal refusal a bad proof gets.
	if req.op != opConnect && ss.tenant == nil && ss.srv.tenants.Load() != nil {
		ss.srv.countAuthFailed()
		return &response{status: statusAuthFailed, msg: "authentication required"}
	}
	switch req.op {
	case opConnect:
		return ss.connect(req)
	case opPing:
		return &response{value: time.Now().UnixNano()}
	case opOpen:
		return ss.open(req)
	case opClose:
		return ss.close(req)
	case opWritev:
		return ss.writev(req)
	case opReadv:
		return ss.readv(req)
	case opStat:
		return ss.stat(req)
	case opFstat:
		return ss.fstat(req)
	case opTruncate:
		return ss.truncate(req)
	case opSync:
		return ss.sync(req)
	case opMkdir:
		return errResp(ss.srv.mkdir(req.path))
	case opRmdir:
		return errResp(mapCatErr(ss.srv.cat.Rmdir(req.path)))
	case opUnlink:
		return errResp(ss.srv.unlink(req.path))
	case opList:
		return ss.list(req)
	case opSetAttr:
		return ss.setAttr(req)
	case opGetAttr:
		return ss.getAttr(req)
	case opResources:
		return ss.listResources()
	case opRename:
		return ss.rename(req)
	case opReplicate:
		return ss.replicate(req)
	case opChecksum:
		return ss.checksum(req)
	default:
		return errResp(fmt.Errorf("%w: unknown opcode %d", ErrInvalid, req.op))
	}
}

// connect serves the handshake. Anonymous servers (no registry) keep the
// legacy behavior: any connect succeeds, auth blobs are ignored. With a
// registry attached, the connect data must decode to a (tenant ID, proof)
// pair that verifies; every failure mode — missing blob, malformed blob,
// unknown tenant, bad proof — returns the same terminal status with a
// generic message, so the handshake cannot be used to probe which tenant
// IDs exist. ServeConn hangs up after writing a statusAuthFailed response.
func (ss *session) connect(req *request) *response {
	ss.user = req.path
	reg := ss.srv.tenants.Load()
	if reg == nil {
		return &response{value: protoVer, msg: "SRB-Go/1 ready"}
	}
	refuse := func() *response {
		ss.srv.countAuthFailed()
		return &response{status: statusAuthFailed, msg: "invalid tenant credentials"}
	}
	if len(req.data) == 0 {
		return refuse()
	}
	id, proof, err := decodeAuth(req.data)
	if err != nil {
		return refuse()
	}
	t, err := reg.Authenticate(id, req.path, proof)
	if err != nil {
		return refuse()
	}
	ss.tenant = t
	return &response{value: protoVer, msg: "SRB-Go/1 ready"}
}

func errResp(err error) *response {
	st, msg := errToStatus(err)
	return &response{status: st, msg: msg}
}

func mapCatErr(err error) error {
	switch err {
	case nil:
		return nil
	case mcat.ErrNotFound:
		return ErrNotFound
	case mcat.ErrExists:
		return ErrExists
	case mcat.ErrIsDir:
		return ErrIsDir
	case mcat.ErrNotDir:
		return ErrNotDir
	case mcat.ErrNotEmpty:
		return ErrNotEmpty
	case mcat.ErrBadPath, mcat.ErrNoResource:
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	default:
		if errors.Is(err, mcat.ErrQuotaExceeded) {
			return fmt.Errorf("%w: %v", ErrQuotaExceeded, err)
		}
		return err
	}
}

func (s *Server) store(resource string) (storage.Store, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.resources[resource]
	if !ok {
		return nil, fmt.Errorf("%w: resource %q", ErrInvalid, resource)
	}
	return st, nil
}

func (s *Server) mkdir(p string) error {
	return mapCatErr(s.cat.Mkdir(p))
}

func (s *Server) unlink(p string) error {
	e, err := s.cat.Lookup(p)
	if err != nil {
		return mapCatErr(err)
	}
	if e.Type == mcat.TypeCollection {
		return ErrIsDir
	}
	if err := s.cat.Remove(p); err != nil {
		return mapCatErr(err)
	}
	if st, err := s.store(e.Resource); err == nil {
		//lint:allow errdrop -- catalog entry is already gone; physical removal is best-effort GC
		st.Remove(e.PhysicalKey)
	}
	for _, r := range e.Replicas {
		if st, err := s.store(r.Resource); err == nil {
			//lint:allow errdrop -- replica GC is best-effort once the catalog entry is gone
			st.Remove(r.PhysicalKey)
		}
	}
	return nil
}

func (ss *session) open(req *request) *response {
	s := ss.srv
	flags := req.flags
	resource := s.defaultRes
	// The request data may carry a resource hint.
	if len(req.data) > 0 {
		resource = string(req.data)
	}

	e, err := ss.lookupOrCreate(req.path, resource, flags)
	if err != nil {
		return errResp(err)
	}
	obj, err := s.openPhysical(e)
	if err != nil {
		return errResp(err)
	}
	if flags&O_TRUNC != 0 && flags&O_ACCESS != O_RDONLY {
		if err := obj.Truncate(0); err != nil {
			//lint:allow errdrop -- cleanup on the truncate error path; that error is returned
			obj.Close()
			return errResp(fmt.Errorf("%w: %v", ErrIO, err))
		}
		s.cat.SetSize(req.path, 0)
	}
	h := int32(atomic.AddInt64(&s.handleSeq, 1))
	ss.files[h] = &openFile{obj: obj, path: req.path, flags: flags}
	atomic.AddInt64(&s.stats.OpenHandles, 1)
	return &response{value: int64(h)}
}

// lookupOrCreate resolves an open's catalog entry. An O_CREATE open holds
// createMu from the lookup through the physical create, so concurrent
// creators of one path agree on a single winner, and none of the others
// can reach the entry before its physical object exists.
func (ss *session) lookupOrCreate(p, resource string, flags uint32) (*mcat.Entry, error) {
	s := ss.srv
	if flags&O_CREATE != 0 {
		s.createMu.Lock()
		defer s.createMu.Unlock()
	}
	e, err := s.cat.Lookup(p)
	switch {
	case err == nil:
		if e.Type == mcat.TypeCollection {
			return nil, ErrIsDir
		}
		if flags&O_EXCL != 0 && flags&O_CREATE != 0 {
			return nil, ErrExists
		}
		return e, nil
	case err == mcat.ErrNotFound && flags&O_CREATE != 0:
		e, err = s.cat.CreateFileAs(p, resource, ss.owner())
		if err != nil {
			return nil, mapCatErr(err)
		}
		st, err := s.store(e.Resource)
		if err != nil {
			return nil, err
		}
		if _, err := st.Create(e.PhysicalKey); err != nil && err != storage.ErrExists {
			return nil, fmt.Errorf("%w: %v", ErrIO, err)
		}
		return e, nil
	default:
		return nil, mapCatErr(err)
	}
}

func (ss *session) lookupHandle(h int32) (*openFile, *response) {
	f, ok := ss.files[h]
	if !ok {
		return nil, errResp(ErrBadHandle)
	}
	return f, nil
}

func (ss *session) close(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	delete(ss.files, req.handle)
	atomic.AddInt64(&ss.srv.stats.OpenHandles, -1)
	if err := f.obj.Close(); err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	return &response{}
}

// writev serves every write: one or more absolute-offset segments in one
// request (the server keeps no file pointer, so a replayed request names
// the same bytes as the original). Malformed vector framing is an
// ErrInvalid status reply — the wire frame itself parsed fine, so the
// connection survives. Each segment is an idempotent WriteAt, so a replay
// after a mid-vector transport failure is safe.
func (ss *session) writev(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	if f.flags&O_ACCESS == O_RDONLY {
		return errResp(fmt.Errorf("%w: file not open for writing", ErrInvalid))
	}
	var one [1]writeSeg
	segs, err := decodeWritev(req.data, one[:])
	if err != nil {
		return errResp(err)
	}
	var maxEnd int64
	for _, sg := range segs {
		if end := sg.off + int64(len(sg.data)); end > maxEnd {
			maxEnd = end
		}
	}
	// One pre-check for the vector's furthest extent: all-or-nothing
	// against quota, before any segment reaches storage.
	if err := ss.srv.cat.CheckGrow(f.path, maxEnd); err != nil {
		return errResp(mapCatErr(err))
	}
	var total, ackEnd int64
	var werr error
	for _, sg := range segs {
		var n int
		n, werr = f.obj.WriteAt(sg.data, sg.off)
		if n > 0 {
			total += int64(n)
			if end := sg.off + int64(n); end > ackEnd {
				ackEnd = end
			}
		}
		if werr != nil || n < len(sg.data) {
			// A failed or short write (e.g. a full device) ends the vector;
			// blindly continuing would punch a hole. A short write without
			// an error reports the acknowledged total.
			break
		}
	}
	if total > 0 {
		// One catalog update for the whole vector: the size and quota usage
		// must cover every byte the store accepted, failure or not.
		ss.srv.cat.GrowSize(f.path, ackEnd)
	}
	atomic.AddInt64(&ss.srv.stats.BytesWritten, total)
	if werr != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, werr))
	}
	return &response{value: total}
}

// readv serves every read: one or more absolute-offset ranges gathered
// into one reply. Ranges are filled front to back; the first range that
// comes up short (EOF) ends the reply, so the client's sequential scatter
// is unambiguous. Malformed vector framing is an ErrInvalid status reply —
// the wire frame itself parsed fine, so the connection survives.
func (ss *session) readv(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	if f.flags&O_ACCESS == O_WRONLY {
		return errResp(fmt.Errorf("%w: file not open for reading", ErrInvalid))
	}
	var one [1]readSeg
	segs, err := decodeReadv(req.data, one[:])
	if err != nil {
		return errResp(err)
	}
	var want int
	for _, sg := range segs {
		want += sg.n
	}
	if req.length != int64(want) {
		// The stated length is what admitTenant charged; it must be
		// what the reply can carry.
		return errResp(fmt.Errorf("%w: readv length %d, ranges sum to %d", ErrInvalid, req.length, want))
	}
	buf := getBuf(want)
	total := 0
	for _, sg := range segs {
		rn, rerr := f.obj.ReadAt(buf[total:total+sg.n], sg.off)
		total += rn
		if rerr != nil && rerr != io.EOF {
			putBuf(buf) // the error response carries no data; recycle now
			return errResp(fmt.Errorf("%w: %v", ErrIO, rerr))
		}
		if rn < sg.n {
			break
		}
	}
	atomic.AddInt64(&ss.srv.stats.BytesRead, int64(total))
	return &response{value: int64(total), data: buf[:total]}
}

func (ss *session) entryInfo(e *mcat.Entry) *FileInfo {
	return &FileInfo{
		Path:     e.Path,
		IsDir:    e.Type == mcat.TypeCollection,
		Size:     e.Size,
		Modified: e.Modified.UnixNano(),
		Resource: e.Resource,
	}
}

func (ss *session) stat(req *request) *response {
	e, err := ss.srv.cat.Lookup(req.path)
	if err != nil {
		return errResp(mapCatErr(err))
	}
	return &response{data: encodeFileInfo(ss.entryInfo(e))}
}

func (ss *session) fstat(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	e, err := ss.srv.cat.Lookup(f.path)
	if err != nil {
		// Unlinked while open: report from the object itself.
		sz, serr := f.obj.Size()
		if serr != nil {
			return errResp(fmt.Errorf("%w: %v", ErrIO, serr))
		}
		return &response{data: encodeFileInfo(&FileInfo{Path: f.path, Size: sz})}
	}
	info := ss.entryInfo(e)
	// Size in the catalog may lag behind unsynced object bytes for files
	// opened by other sessions; trust the object.
	if sz, serr := f.obj.Size(); serr == nil && sz > info.Size {
		info.Size = sz
	}
	return &response{data: encodeFileInfo(info)}
}

func (ss *session) truncate(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	// Truncating up materializes a hole the catalog accounts as stored
	// bytes, so it passes the same quota gate as a write.
	if err := ss.srv.cat.CheckGrow(f.path, req.length); err != nil {
		return errResp(mapCatErr(err))
	}
	if err := f.obj.Truncate(req.length); err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	ss.srv.cat.SetSize(f.path, req.length)
	return &response{}
}

func (ss *session) sync(req *request) *response {
	f, er := ss.lookupHandle(req.handle)
	if er != nil {
		return er
	}
	if err := f.obj.Sync(); err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	return &response{}
}

func (ss *session) list(req *request) *response {
	entries, err := ss.srv.cat.List(req.path)
	if err != nil {
		return errResp(mapCatErr(err))
	}
	var buf []byte
	for _, e := range entries {
		buf = append(buf, encodeFileInfo(ss.entryInfo(e))...)
	}
	return &response{value: int64(len(entries)), data: buf}
}

func (ss *session) setAttr(req *request) *response {
	// data = key\x00value
	key, val, ok := splitKV(req.data)
	if !ok {
		return errResp(fmt.Errorf("%w: malformed attribute", ErrInvalid))
	}
	return errResp(mapCatErr(ss.srv.cat.SetAttr(req.path, key, val)))
}

func (ss *session) getAttr(req *request) *response {
	key := string(req.data)
	v, err := ss.srv.cat.GetAttr(req.path, key)
	if err != nil {
		return errResp(mapCatErr(err))
	}
	return &response{data: []byte(v)}
}

func (ss *session) listResources() *response {
	var buf []byte
	rs := ss.srv.cat.Resources()
	for _, r := range rs {
		buf = appendString(buf, r.Name)
		buf = appendString(buf, r.Kind)
	}
	return &response{value: int64(len(rs)), data: buf}
}

func (ss *session) rename(req *request) *response {
	newPath := string(req.data)
	if err := ss.srv.cat.Rename(req.path, newPath); err != nil {
		return errResp(mapCatErr(err))
	}
	return &response{}
}

// openPhysical opens an entry's primary object, failing over to replicas
// when the primary copy is unavailable (a degraded resource).
func (s *Server) openPhysical(e *mcat.Entry) (storage.Object, error) {
	copies := append([]mcat.Replica{{Resource: e.Resource, PhysicalKey: e.PhysicalKey}},
		e.Replicas...)
	var lastErr error
	for _, r := range copies {
		st, err := s.store(r.Resource)
		if err != nil {
			lastErr = err
			continue
		}
		obj, err := st.Open(r.PhysicalKey)
		if err == nil {
			return obj, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: no usable copy: %v", ErrIO, lastErr)
}

// replicate copies a data object to another resource and records the
// replica in the catalog. The copy is point-in-time; subsequent writes go
// to the primary only.
func (ss *session) replicate(req *request) *response {
	s := ss.srv
	target := string(req.data)
	e, err := s.cat.Lookup(req.path)
	if err != nil {
		return errResp(mapCatErr(err))
	}
	if e.Type == mcat.TypeCollection {
		return errResp(ErrIsDir)
	}
	if target == e.Resource {
		return errResp(fmt.Errorf("%w: replica on primary resource", ErrInvalid))
	}
	dstStore, err := s.store(target)
	if err != nil {
		return errResp(err)
	}
	src, err := s.openPhysical(e)
	if err != nil {
		return errResp(err)
	}
	defer src.Close()

	key := e.PhysicalKey + "@" + target
	dst, err := dstStore.Create(key)
	if err == storage.ErrExists {
		return errResp(fmt.Errorf("%w: replica already present on %s", ErrExists, target))
	}
	if err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	defer dst.Close()

	size, err := src.Size()
	if err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	buf := make([]byte, 1<<20)
	for off := int64(0); off < size; {
		n, rerr := src.ReadAt(buf, off)
		if n > 0 {
			if _, werr := dst.WriteAt(buf[:n], off); werr != nil {
				return errResp(fmt.Errorf("%w: %v", ErrIO, werr))
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return errResp(fmt.Errorf("%w: %v", ErrIO, rerr))
		}
	}
	if err := s.cat.AddReplica(req.path, mcat.Replica{Resource: target, PhysicalKey: key}); err != nil {
		return errResp(mapCatErr(err))
	}
	return &response{value: size}
}

// checksum computes the SHA-256 of a data object server-side (the
// Schksum facility: end-to-end integrity without shipping the bytes) and
// records it as the "checksum" attribute.
func (ss *session) checksum(req *request) *response {
	s := ss.srv
	e, err := s.cat.Lookup(req.path)
	if err != nil {
		return errResp(mapCatErr(err))
	}
	if e.Type == mcat.TypeCollection {
		return errResp(ErrIsDir)
	}
	obj, err := s.openPhysical(e)
	if err != nil {
		return errResp(err)
	}
	defer obj.Close()
	size, err := obj.Size()
	if err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrIO, err))
	}
	h := sha256.New()
	buf := make([]byte, 1<<20)
	for off := int64(0); off < size; {
		n, rerr := obj.ReadAt(buf, off)
		if n > 0 {
			//lint:allow errdrop -- hash.Hash.Write is documented to never return an error
			h.Write(buf[:n])
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return errResp(fmt.Errorf("%w: %v", ErrIO, rerr))
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	s.cat.SetAttr(req.path, "checksum", sum)
	return &response{value: size, data: []byte(sum)}
}

func splitKV(b []byte) (key, val string, ok bool) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), string(b[i+1:]), true
		}
	}
	return "", "", false
}

// MkdirAll is a server-side helper used by testbed setup.
func (s *Server) MkdirAll(p string) error {
	return mapCatErr(s.cat.MkdirAll(path.Clean(p)))
}
