// Package semplar is the public face of the SEMPLAR reproduction: a
// high-performance remote I/O library that layers asynchronous primitives,
// multi-stream striping and on-the-fly compression over an SRB-style
// storage server, as described in "Improving the Performance of Remote I/O
// Using Asynchronous Primitives" (Ali & Lauria, HPDC 2006).
//
// A Client owns the connection recipe to one SRB server; each Open
// establishes the file's TCP streams (MPI_File_open semantics) and returns
// a File whose nonblocking calls (IWrite, IReadAt, ...) are serviced by
// dedicated I/O goroutines exactly as in the paper's Figure 2 design.
//
//	client, _ := semplar.Dial("storage.example.org:5544", semplar.Options{Streams: 2})
//	f, _ := client.Open("/runs/ckpt", semplar.O_RDWR|semplar.O_CREATE)
//	req := f.IWriteAt(buf, 0) // returns immediately
//	compute()                 // overlapped with the transfer
//	n, err := req.Wait()      // MPIO_Wait
package semplar

import (
	"fmt"
	"net"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mpiio"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// Open flags (POSIX-like, matching the SRBFS protocol). O_APPEND is
// MPI_MODE_APPEND: the file pointer starts at end of file, so Write and
// IWrite append, while explicit-offset calls write where they say.
const (
	O_RDONLY = adio.O_RDONLY
	O_WRONLY = adio.O_WRONLY
	O_RDWR   = adio.O_RDWR
	O_CREATE = adio.O_CREATE
	O_TRUNC  = adio.O_TRUNC
	O_EXCL   = adio.O_EXCL
	O_APPEND = adio.O_APPEND
)

// Request is the handle of a nonblocking operation; Wait blocks for the
// result (MPIO_Wait) and Test polls it (MPIO_Test).
type Request = core.Request

// DialFunc opens one transport connection to the SRB server. Every stream
// of every open file dials its own connection.
type DialFunc = core.DialFunc

// RetryPolicy configures per-operation deadlines and retry/backoff for
// transient transport failures. The zero value fails fast (no retries,
// no deadline); DefaultRetryPolicy returns production-style settings.
type RetryPolicy = srb.RetryPolicy

// DefaultRetryPolicy returns the recommended fault-tolerance settings:
// four attempts per operation with exponential backoff and jitter, and a
// 30s per-operation deadline.
func DefaultRetryPolicy() RetryPolicy { return srb.DefaultRetryPolicy() }

// FaultStats counts an open file's fault-recovery activity: stream
// reconnects, replayed operations and the remaining reconnect budget.
type FaultStats = core.FaultStats

// Credentials identify a tenant to a multi-tenant server: a tenant ID and
// the shared key whose HMAC proof is presented on every handshake. The key
// itself never crosses the wire. The zero value connects anonymously.
type Credentials = srb.Credentials

// Tracer records end-to-end request traces and metrics: per-request
// lifecycle spans (queued → run → wire), queue-depth and in-flight gauges,
// per-stream byte counters and latency histograms. Export the result with
// WriteChrome (Chrome trace-event JSON for about:tracing / Perfetto) or
// Summary (plain text). A nil Tracer is valid and free: tracing off.
type Tracer = trace.Tracer

// NewTracer returns a wall-clock Tracer ready to pass in Options.
func NewTracer() *Tracer { return trace.New() }

// Options tune a Client.
type Options struct {
	// User identifies the client to the server (default "semplar").
	User string
	// Tenant presents multi-tenant credentials on every handshake. Leave
	// zero for servers without authentication; servers with a tenant
	// registry refuse anonymous connections terminally (ErrAuthFailed).
	Tenant Credentials
	// Resource selects the server storage resource ("" = default).
	Resource string
	// Streams is the default number of concurrent TCP streams per open
	// file (default 1). Per-call OpenOptions can override it.
	Streams int
	// StripeSize is the striping unit across streams (default 1 MiB).
	StripeSize int
	// IOThreads sets each file's asynchronous I/O thread pool
	// (default 1, the paper's configuration; use one per stream to let
	// nonblocking calls drive the streams independently).
	IOThreads int
	// Retry enables fault tolerance on every stream: per-operation
	// deadlines, retry with exponential backoff for transient transport
	// failures, and transparent stream reconnection with replay of the
	// failed explicit-offset operation. The zero value keeps the
	// fail-fast behavior.
	Retry RetryPolicy
	// ReconnectBudget caps stream redials per open file handle
	// (0 = a default of 8 when Retry is enabled; negative disables
	// reconnection while keeping same-connection retries).
	ReconnectBudget int
	// Tracer, when non-nil, records every request's lifecycle across the
	// whole stack (engine queue, wire ops, per-stream bytes, faults). Nil
	// keeps tracing off at near-zero cost.
	Tracer *Tracer
}

// Client is a handle to one SRB server.
type Client struct {
	opts Options
	fs   *core.SRBFS
	reg  *adio.Registry
	dial DialFunc
}

// Dial connects to an SRB server over TCP.
func Dial(addr string, opts Options) (*Client, error) {
	return NewClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, opts)
}

// NewClient builds a client over a custom transport — real sockets or the
// simulated WAN testbeds used in the evaluation harness.
func NewClient(dial DialFunc, opts Options) (*Client, error) {
	if dial == nil {
		return nil, fmt.Errorf("semplar: nil dial function")
	}
	if opts.User == "" {
		opts.User = "semplar"
	}
	fs, err := core.NewSRBFS(core.SRBFSConfig{
		Dial:            dial,
		User:            opts.User,
		Tenant:          opts.Tenant,
		Resource:        opts.Resource,
		Streams:         opts.Streams,
		StripeSize:      opts.StripeSize,
		Retry:           opts.Retry,
		ReconnectBudget: opts.ReconnectBudget,
		Tracer:          opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	reg := &adio.Registry{}
	reg.Register(fs)
	return &Client{opts: opts, fs: fs, reg: reg, dial: dial}, nil
}

// OpenOptions override per-file settings.
type OpenOptions struct {
	Streams    int // TCP streams for this file (0 = client default)
	StripeSize int // striping unit (0 = client default)
	IOThreads  int // async I/O threads (0 = client default)
}

// Open opens or creates a remote file with the client defaults.
func (c *Client) Open(path string, flags int) (*File, error) {
	return c.OpenWith(path, flags, OpenOptions{})
}

// OpenWith opens a remote file with per-file overrides.
func (c *Client) OpenWith(path string, flags int, oo OpenOptions) (*File, error) {
	hints := adio.Hints{}
	if oo.Streams > 0 {
		hints["streams"] = fmt.Sprint(oo.Streams)
	}
	if oo.StripeSize > 0 {
		hints["stripe_size"] = fmt.Sprint(oo.StripeSize)
	}
	threads := c.opts.IOThreads
	if oo.IOThreads > 0 {
		threads = oo.IOThreads
	}
	if threads > 0 {
		hints["io_threads"] = fmt.Sprint(threads)
	}
	f, err := mpiio.OpenLocal(c.reg, "srb:"+path, flags, hints)
	if err != nil {
		return nil, err
	}
	if c.opts.Tracer != nil {
		f.SetTracer(c.opts.Tracer)
	}
	return &File{File: f}, nil
}

// admin returns a short-lived control connection. It honors the client's
// retry policy so metadata operations survive transient dial failures just
// like the data streams do.
func (c *Client) admin() (*srb.Conn, error) {
	return srb.DialRetryAuth(c.dial, c.opts.User, c.opts.Tenant, c.opts.Retry)
}

// Remove deletes a remote file.
func (c *Client) Remove(path string) error {
	return c.fs.Delete(path)
}

// Mkdir creates a remote collection.
func (c *Client) Mkdir(path string) error {
	conn, err := c.admin()
	if err != nil {
		return err
	}
	defer conn.Close()
	return conn.Mkdir(path)
}

// Checksum asks the server to compute the SHA-256 of a remote file
// without transferring its bytes, returning the hex digest and the object
// size — the cheap way to verify content after a fault-recovered
// transfer.
func (c *Client) Checksum(path string) (string, int64, error) {
	conn, err := c.admin()
	if err != nil {
		return "", 0, err
	}
	defer conn.Close()
	return conn.Checksum(path)
}

// FileInfo describes a remote file or collection.
type FileInfo struct {
	Path  string
	IsDir bool
	Size  int64
}

// Stat queries a remote path.
func (c *Client) Stat(path string) (*FileInfo, error) {
	conn, err := c.admin()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	fi, err := conn.Stat(path)
	if err != nil {
		return nil, err
	}
	return &FileInfo{Path: fi.Path, IsDir: fi.IsDir, Size: fi.Size}, nil
}

// List enumerates a remote collection.
func (c *Client) List(path string) ([]*FileInfo, error) {
	conn, err := c.admin()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	entries, err := conn.List(path)
	if err != nil {
		return nil, err
	}
	out := make([]*FileInfo, len(entries))
	for i, e := range entries {
		out[i] = &FileInfo{Path: e.Path, IsDir: e.IsDir, Size: e.Size}
	}
	return out, nil
}

// File is an open remote file. It exposes the full MPI-IO-style surface:
// blocking Read/Write/ReadAt/WriteAt, the individual file pointer with
// Seek/Tell, and the asynchronous IRead/IWrite/IReadAt/IWriteAt calls that
// return Requests.
type File struct {
	*mpiio.File
}

// Wait blocks until a nonblocking operation completes (MPIO_Wait).
func Wait(r *Request) (int, error) { return r.Wait() }

// Test polls a nonblocking operation (MPIO_Test).
func Test(r *Request) (n int, err error, done bool) { return r.Test() }

// WaitAll waits for a batch of requests, returning total bytes and the
// first error.
func WaitAll(reqs []*Request) (int, error) { return mpiio.WaitAll(reqs) }

// CompressStats summarizes one compressed transfer.
type CompressStats = core.CompressStats

// WriteCompressed writes data to f at off as framed LZO blocks, pipelining
// compression of block k+1 with the transfer of block k through the file's
// asynchronous engine (the Section 7.3 optimization). blockSize <= 0 uses
// the paper's 1 MB.
func WriteCompressed(f *File, off int64, data []byte, blockSize int) (CompressStats, error) {
	return core.WriteCompressed(f.File, off, data, blockSize, f.Engine())
}

// WriteCompressedSync is the unpipelined variant: compression sits on the
// critical path (the baseline the paper's condition inequality describes).
func WriteCompressedSync(f *File, off int64, data []byte, blockSize int) (CompressStats, error) {
	return core.WriteCompressed(f.File, off, data, blockSize, nil)
}

// ReadCompressed reads consecutive framed LZO blocks from f starting at
// off, prefetching the next block while the current one decompresses.
func ReadCompressed(f *File, off int64) ([]byte, error) {
	return core.ReadCompressed(f.File, off, f.Engine())
}
