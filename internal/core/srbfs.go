package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// DefaultStripeSize is the striping unit across TCP streams. Each stripe
// is one synchronous SRB request, so stripes must be large enough that the
// per-request WAN round trip is amortized; applications that issue one big
// write per I/O phase (the paper's pattern) want stripe ~ transfer/streams.
const DefaultStripeSize = 1 << 20

// DefaultReconnectBudget bounds how many times one open handle may redial
// a dead stream over its lifetime when the retry policy is enabled but no
// explicit budget is configured. The budget is what keeps a hard-down
// server from turning into an unbounded reconnect loop.
const DefaultReconnectBudget = 8

// DialFunc opens one new transport connection to the SRB server. Every
// stream of every open file gets its own connection — each with a separate
// endpoint, as in SEMPLAR.
type DialFunc func() (net.Conn, error)

// SRBFSConfig configures the SEMPLAR ADIO driver.
type SRBFSConfig struct {
	Dial     DialFunc
	User     string
	Resource string // server storage resource ("" = server default)
	// Tenant carries multi-tenant credentials presented on every
	// handshake (initial dials and stream reconnections alike). The zero
	// value connects anonymously — refused by servers that require
	// authentication.
	Tenant srb.Credentials
	// Streams is the default number of concurrent TCP streams per open
	// file handle (>= 1). The per-open hint "streams" overrides it.
	Streams int
	// StripeSize is the striping unit across streams; hint
	// "stripe_size" overrides it.
	StripeSize int
	// Retry governs per-operation deadlines and the retry/reconnect
	// behavior of every stream. The zero value fails fast on the first
	// transport error (the historical behavior).
	Retry srb.RetryPolicy
	// ReconnectBudget caps stream redials per open handle. Zero with an
	// enabled Retry policy means DefaultReconnectBudget; negative
	// disables reconnection while keeping same-connection retries.
	ReconnectBudget int
	// Tracer, when non-nil, records per-stream byte counters, wire-level
	// operation spans and fault-recovery events for every handle this
	// driver opens.
	Tracer *trace.Tracer
}

// SRBFS is the high-performance ADIO implementation for the SRB filesystem
// (Figure 1's SRBFS box). Opening a file establishes its TCP streams;
// closing it tears them down, mirroring MPI_File_open/close semantics.
type SRBFS struct {
	cfg SRBFSConfig
}

// NewSRBFS validates the config and returns the driver.
func NewSRBFS(cfg SRBFSConfig) (*SRBFS, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("core: SRBFS needs a Dial function")
	}
	if cfg.Streams < 1 {
		cfg.Streams = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	if cfg.User == "" {
		cfg.User = "semplar"
	}
	if cfg.ReconnectBudget == 0 && cfg.Retry.Enabled() {
		cfg.ReconnectBudget = DefaultReconnectBudget
	}
	if cfg.ReconnectBudget < 0 {
		cfg.ReconnectBudget = 0
	}
	return &SRBFS{cfg: cfg}, nil
}

// Name implements adio.Driver.
func (d *SRBFS) Name() string { return "srb" }

// Delete implements adio.Driver.
func (d *SRBFS) Delete(path string) error {
	conn, err := d.connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	return conn.Unlink(path)
}

// connect dials and handshakes one connection, retrying transient dial
// failures under the configured policy and installing its per-operation
// deadline.
func (d *SRBFS) connect() (*srb.Conn, error) {
	conn, err := srb.DialRetryAuth(d.cfg.Dial, d.cfg.User, d.cfg.Tenant, d.cfg.Retry)
	if err != nil {
		return nil, fmt.Errorf("core: dial SRB server: %w", err)
	}
	conn.SetTracer(d.cfg.Tracer)
	return conn, nil
}

// Open implements adio.Driver. Supported hints: "streams" (int) and
// "stripe_size" (bytes).
func (d *SRBFS) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// open is Open with the concrete handle type, for the federation layer.
func (d *SRBFS) open(path string, flags int, hints adio.Hints) (*srbFile, error) {
	streams := d.cfg.Streams
	if v := hints.Get("streams", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad streams hint %q", v)
		}
		streams = n
	}
	stripe := d.cfg.StripeSize
	if v := hints.Get("stripe_size", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad stripe_size hint %q", v)
		}
		stripe = n
	}

	f := &srbFile{
		fs:     d,
		path:   path,
		stripe: int64(stripe),
		// Reconnects must never truncate or exclusive-create: the file
		// exists and holds acknowledged data by the time a stream dies.
		reopenFlags: flags &^ (adio.O_TRUNC | adio.O_EXCL),
		budget:      d.cfg.ReconnectBudget,
		tracer:      d.cfg.Tracer,
	}
	for i := 0; i < streams; i++ {
		// Only the first stream may truncate or exclusive-create;
		// the rest reopen the now-existing file (O_CREATE is kept so
		// the open cannot race with another node's create).
		sf := flags
		if i > 0 {
			sf = f.reopenFlags
		}
		// The whole dial+handshake+open sequence is one try of the retry
		// loop, so opening a stream dials at most MaxAttempts times: a
		// refused dial, a reset landing between the handshake and the open
		// reply, and a server shedding the open with ErrServerBusy are all
		// the same backed-off replay.
		var conn *srb.Conn
		var file *srb.File
		_, err := d.cfg.Retry.Do(func() (err error) {
			conn, file, err = d.dialOpen(path, sf)
			return err
		}, nil)
		if err != nil {
			//lint:allow errdrop -- unwinding a partially-opened stripe set; the open error is returned
			f.Close()
			return nil, err
		}
		f.streams = append(f.streams, &stream{
			conn:     conn,
			file:     file,
			readCtr:  fmt.Sprintf("srbfs.stream%d.read_bytes", i),
			writeCtr: fmt.Sprintf("srbfs.stream%d.write_bytes", i),
		})
	}
	return f, nil
}

// dialOpen makes one attempt at a ready stream: dial, handshake, open the
// file on the fresh connection. Stream open and stream recovery are both
// this, retried by their callers.
func (d *SRBFS) dialOpen(path string, flags int) (*srb.Conn, *srb.File, error) {
	conn, err := srb.DialAuth(d.cfg.Dial, d.cfg.User, d.cfg.Tenant, d.cfg.Retry.OpTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dial SRB server: %w", err)
	}
	conn.SetTracer(d.cfg.Tracer)
	file, err := conn.Open(path, flags, d.cfg.Resource)
	if err != nil {
		//lint:allow errdrop -- discarding the conn whose open failed; that error is returned
		conn.Close()
		return nil, nil, err
	}
	return conn, file, nil
}

// stream is one TCP stream of a striped handle. Its connection and file
// handle are replaced in place by a reconnect; gen counts replacements so
// concurrent workers that observed the same dead connection perform only
// one redial between them.
type stream struct {
	mu     sync.Mutex
	gen    int       // guarded by mu
	conn   *srb.Conn // guarded by mu
	file   *srb.File // guarded by mu
	closed bool      // guarded by mu; set by Close, never cleared

	// Trace counter names for this stream's traffic; immutable after Open.
	// They are silent counters (aggregate only), so concurrent stripes on
	// different streams never perturb trace event order.
	readCtr  string
	writeCtr string
}

// handle snapshots the stream's current file handle and generation. With
// no handle to give it reports why: errHandleClosed once Close tore the
// stream down, errStreamDown while a reconnect is owed.
func (s *stream) handle() (*srb.File, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, s.gen, errHandleClosed
	case s.file == nil:
		return nil, s.gen, errStreamDown
	}
	return s.file, s.gen, nil
}

// errStreamDown stands in for an op attempted while a stream has no live
// connection (a previous reconnect attempt failed); it is retryable.
var errStreamDown = errors.New("core: stream disconnected")

// errHandleClosed is what an op on a closed SRBFS or FedFS handle returns,
// however it raced Close. It wraps srb.ErrInvalid, so it is terminal: no
// retry loop replays it.
var errHandleClosed = fmt.Errorf("core: file handle closed: %w", srb.ErrInvalid)

// errBudgetExhausted is terminal: the handle spent its reconnect budget.
var errBudgetExhausted = errors.New("core: reconnect budget exhausted")

// FaultStats counts one handle's fault-recovery activity.
type FaultStats struct {
	// Reconnects is the number of stream redials attempted.
	Reconnects int64
	// RetriedOps is the number of operations that failed at least once
	// and were replayed to completion.
	RetriedOps int64
	// BudgetLeft is the remaining reconnect budget.
	BudgetLeft int
}

// FaultReporter is implemented by files that track fault-recovery metrics.
type FaultReporter interface {
	FaultStats() FaultStats
}

// srbFile stripes one logical file handle over its TCP streams. With one
// stream it behaves like original SEMPLAR; with more, explicit-offset I/O
// is split on stripe boundaries and the pieces proceed concurrently, one
// goroutine per stream — the split-TCP optimization of Section 7.2.
//
// When the driver's RetryPolicy is enabled, a stream whose connection dies
// mid-operation is transparently redialed and the failed explicit-offset
// op replayed: ReadAt/WriteAt are idempotent (same bytes, same offsets),
// so a replay after a partially-applied write converges to the same file
// contents. Reconnects draw on a per-handle budget.
type srbFile struct {
	fs          *SRBFS
	path        string
	reopenFlags int
	stripe      int64
	streams     []*stream // immutable after Open

	mu     sync.Mutex
	closed bool // guarded by mu
	budget int  // guarded by mu; remaining reconnects

	reconnects atomic.Int64
	retriedOps atomic.Int64

	tracer *trace.Tracer // immutable after Open; nil = tracing off
}

var _ adio.File = (*srbFile)(nil)
var _ FaultReporter = (*srbFile)(nil)

// Streams reports how many TCP streams back this handle.
func (f *srbFile) Streams() int { return len(f.streams) }

// FaultStats implements FaultReporter.
func (f *srbFile) FaultStats() FaultStats {
	f.mu.Lock()
	left := f.budget
	f.mu.Unlock()
	return FaultStats{
		Reconnects: f.reconnects.Load(),
		RetriedOps: f.retriedOps.Load(),
		BudgetLeft: left,
	}
}

// retry runs one idempotent operation on a stream under the driver's retry
// policy: a retryable failure (dead connection, timeout) backs off, redials
// the stream, reopens the handle and replays the op. Explicit-offset reads
// and writes, vectors of them, and Size/Truncate/Sync all qualify — a
// replay after a partially applied attempt converges to the same state.
// The returned count always describes the final attempt — a replayed op
// reports its true full count, never partial progress from a dead stream.
func (f *srbFile) retry(s *stream, try func(*srb.File) (int, error)) (n int, err error) {
	var gen int
	attempts, err := f.fs.cfg.Retry.Do(func() (err error) {
		var file *srb.File
		if file, gen, err = s.handle(); err != nil {
			n = 0
			return err
		}
		n, err = try(file)
		return err
	}, func() error {
		return f.recoverStream(s, gen)
	})
	if attempts > 1 && (err == nil || errors.Is(err, io.EOF)) {
		f.retriedOps.Add(1)
		f.tracer.Count("srbfs.retried_ops", 1)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		if _, _, cerr := s.handle(); errors.Is(cerr, errHandleClosed) {
			// The op raced Close: whatever cut it short (its connection
			// closed, its server handle released), that is the outcome.
			err = errHandleClosed
		}
	}
	return n, err
}

// moved adds a completed data op's bytes to its stream's trace counter; an
// op that failed counts nothing, and a read's io.EOF is a completion.
func (f *srbFile) moved(ctr string, n int, err error) {
	if err == nil || errors.Is(err, io.EOF) {
		f.tracer.Count(ctr, int64(n))
	}
}

// rw is one explicit-offset read or write on one stream.
func (f *srbFile) rw(s *stream, write bool, buf []byte, off int64) (int, error) {
	ctr := s.readCtr
	if write {
		ctr = s.writeCtr
	}
	n, err := f.retry(s, func(file *srb.File) (int, error) {
		if write {
			return file.WriteAt(buf, off)
		}
		return file.ReadAt(buf, off)
	})
	f.moved(ctr, n, err)
	return n, err
}

// recoverStream replaces a stream's dead connection with a freshly dialed
// one and reopens the file handle on it. gen is the generation the caller
// observed failing; if another worker already reconnected past it, the
// call is a no-op so one dead connection costs one redial, not one per
// in-flight op. Each attempt — successful or not — consumes one unit of
// the handle's reconnect budget.
func (f *srbFile) recoverStream(s *stream, gen int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return nil // already reconnected by a concurrent op
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errHandleClosed
	}
	if f.budget <= 0 {
		f.mu.Unlock()
		return fmt.Errorf("%w (%d reconnects): %w", errBudgetExhausted,
			f.reconnects.Load(), srb.ErrIO)
	}
	f.budget--
	f.mu.Unlock()
	f.reconnects.Add(1)
	if f.tracer.Enabled() {
		f.tracer.Count("srbfs.reconnects", 1)
		f.tracer.Instant("fault", "reconnect", 0,
			trace.Str("path", f.path), trace.Int("gen", int64(gen)))
	}

	if s.conn != nil {
		//lint:allow errdrop -- tearing down whatever is left of the dead stream
		s.conn.Close()
	}
	s.conn, s.file = nil, nil

	conn, file, err := f.fs.dialOpen(f.path, f.reopenFlags)
	if err != nil {
		return fmt.Errorf("core: reconnect %s: %w", f.path, err)
	}
	s.conn, s.file = conn, file
	s.gen++
	return nil
}

// layout is the handle's stripe cut: every stream addresses the one file.
func (f *srbFile) layout() layout { return layout{stripe: f.stripe, width: len(f.streams)} }

// transfer cuts extents on stripe boundaries and runs the pieces, one
// worker per stream. Both directions follow one rule: a scalar call sends
// one frame per stripe, pipelined on its stream, so the server stores or
// reads stripe k while stripe k+1 is still on the wire; a vector call sends
// each stream's pieces as one vectored exchange, because list I/O exists to
// put many small extents in one round trip. The count on error is the
// contiguous prefix in plan order.
func (f *srbFile) transfer(vecs []adio.Vec, write, vector bool) (int, error) {
	pieces := plan(vecs, f.layout())
	results := make([]opResult, len(pieces))
	perTarget(pieces, len(f.streams), func(s int, idxs []int) {
		if vector {
			f.vectored(f.streams[s], write, pieces, idxs, results)
		} else {
			f.pipelined(f.streams[s], write, pieces, idxs, results)
		}
	})
	return prefix(pieces, results, write)
}

// pipelineDepth bounds concurrent explicit-offset ops in flight per
// stream: enough to hide the round trip under WAN-scale latency without
// unbounded buffer pressure on the server.
const pipelineDepth = 8

// pipelined issues one stream's pieces as separate explicit-offset ops,
// at most pipelineDepth in flight. Each piece is retried on its own; when
// a connection dies under several of them, the stream's generation check
// makes it one redial.
func (f *srbFile) pipelined(st *stream, write bool, pieces []piece, idxs []int, results []opResult) {
	bounded(pipelineDepth, len(idxs), func(k int) {
		i := idxs[k]
		results[i].n, results[i].err = f.rw(st, write, pieces[i].buf, pieces[i].lOff)
	})
}

// vectored moves one stream's pieces in one vectored exchange (opWritev or
// opReadv frames), retried as a unit: every segment is an absolute-offset
// op, so a replay after a mid-vector transport failure converges to the
// same state, exactly like a replayed WriteAt. A read's io.EOF is a result,
// not a failure: the short piece shows it and prefix reports it.
func (f *srbFile) vectored(st *stream, write bool, pieces []piece, idxs []int, results []opResult) {
	var ctr string
	var try func(*srb.File) (int, error)
	if write {
		segs := make([]srb.WriteSeg, len(idxs))
		for k, i := range idxs {
			segs[k] = srb.WriteSeg{Off: pieces[i].lOff, Data: pieces[i].buf}
		}
		ctr, try = st.writeCtr, func(file *srb.File) (int, error) { return file.WriteAtVec(segs) }
	} else {
		segs := make([]srb.ReadSeg, len(idxs))
		for k, i := range idxs {
			segs[k] = srb.ReadSeg{Off: pieces[i].lOff, Buf: pieces[i].buf}
		}
		ctr, try = st.readCtr, func(file *srb.File) (int, error) { return file.ReadAtVec(segs) }
	}
	n, err := f.retry(st, try)
	f.moved(ctr, n, err)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	spread(pieces, idxs, n, err, results)
}

// striped is ReadAt and WriteAt: with one stream the call is one op on it,
// as in original SEMPLAR; with more, its stripes go out pipelined on their
// streams.
func (f *srbFile) striped(p []byte, off int64, write bool) (int, error) {
	if len(f.streams) == 1 {
		return f.rw(f.streams[0], write, p, off)
	}
	return f.transfer([]adio.Vec{{Off: off, Buf: p}}, write, false)
}

// WriteAt implements adio.File, striping across the streams. On error the
// returned count is the contiguous prefix confirmed written, mirroring
// ReadAt.
func (f *srbFile) WriteAt(p []byte, off int64) (int, error) { return f.striped(p, off, true) }

// ReadAt implements adio.File. Short reads report the contiguous prefix
// actually available, with io.EOF when it ends before len(p).
func (f *srbFile) ReadAt(p []byte, off int64) (int, error) { return f.striped(p, off, false) }

// ReadAtVec implements adio.VectorIO: the whole scatter list moves in one
// vectored opReadv exchange per stream instead of one round trip per
// extent. With one stream everything lands on stream 0 and the wire codec
// re-merges contiguous pieces, so the stripe cut costs table entries only
// when it buys stream parallelism. Short reads report the contiguous prefix
// in segment order with io.EOF, mirroring ReadAt.
func (f *srbFile) ReadAtVec(vecs []adio.Vec) (int, error) { return f.transfer(vecs, false, true) }

// WriteAtVec implements adio.VectorIO: the gather list moves in one
// vectored opWritev exchange per stream, as ReadAtVec's scatter list does.
// The count on error is the contiguous prefix in segment order, mirroring
// WriteAt.
func (f *srbFile) WriteAtVec(vecs []adio.Vec) (int, error) { return f.transfer(vecs, true, true) }

// Size implements adio.File, asking stream 0.
func (f *srbFile) Size() (size int64, err error) {
	_, err = f.retry(f.streams[0], func(file *srb.File) (_ int, err error) {
		size, err = file.Size()
		return 0, err
	})
	return size, err
}

// Truncate implements adio.File, on stream 0.
func (f *srbFile) Truncate(size int64) error {
	_, err := f.retry(f.streams[0], func(file *srb.File) (int, error) {
		return 0, file.Truncate(size)
	})
	return err
}

// Sync implements adio.File, syncing every stream.
func (f *srbFile) Sync() error {
	for _, s := range f.streams {
		if _, _, err := s.handle(); errors.Is(err, errStreamDown) {
			continue // a disconnected stream has nothing buffered; don't redial it to say so
		}
		if _, err := f.retry(s, func(file *srb.File) (int, error) { return 0, file.Sync() }); err != nil {
			return err
		}
	}
	return nil
}

// Close implements adio.File, closing every stream's file and connection.
// It also retires the reconnect budget so no in-flight op redials a
// stream after the handle is gone. The stream set itself stays: an op
// racing Close, one whose call Close cut short included, returns
// errHandleClosed.
func (f *srbFile) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var first error
	for _, s := range f.streams {
		s.mu.Lock()
		file, conn := s.file, s.conn
		s.file, s.conn, s.closed = nil, nil, true
		s.mu.Unlock()
		if file != nil {
			// The close RPC is best-effort on a dead transport: the
			// server releases a killed connection's handles itself, so a
			// retryable (transport-class) failure here means there is
			// nothing left to release, not a close that went wrong.
			if err := file.Close(); err != nil && first == nil && !srb.Retryable(err) {
				first = err
			}
		}
		if conn != nil {
			if err := conn.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
