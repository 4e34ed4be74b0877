package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/storage"
)

// The probes wrap seams of the stack that are already public interfaces,
// from the benchmark's own files:
//
//	A  the application calls into mpiio.File, timed by the run loop itself
//	D  adio.Driver / adio.File, registered in the adio.Registry
//	C  the net.Conn a DialFunc returns (client end of a connection)
//	S  the net.Conn / net.Listener handed to ServeConn / Serve
//	T  storage.Store / storage.Object behind AddResource
//
// Every probe constructor returns its argument unchanged when the recorder
// is nil, so the untraced pass runs the program with nothing in between.

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanKind names what a span covers; the letter is the seam it was taken at.
type spanKind uint8

const (
	aWrite  spanKind = iota // blocking write call, or submit→done of IWriteAt
	aRead                   // blocking read call, or submit→done of IReadAt
	aSubmit                 // the nonblocking call itself (holds the compute thread)
	aWait                   // Request.Wait
	dRead
	dWrite
	dReadv
	dWritev
	cWrite
	cRead
	sRead
	sWrite
	tRead
	tWrite
	tOther // Size, Truncate, Sync on a storage object
)

var spanNames = [...]string{
	aWrite: "app.write", aRead: "app.read", aSubmit: "app.submit", aWait: "app.wait",
	dRead: "driver.read_at", dWrite: "driver.write_at", dReadv: "driver.read_at_vec", dWritev: "driver.write_at_vec",
	cWrite: "conn.write", cRead: "conn.read",
	sRead: "srvconn.read", sWrite: "srvconn.write",
	tRead: "storage.read_at", tWrite: "storage.write_at", tOther: "storage.meta",
}

// span is one probe observation: what, when, how many bytes, and the
// application op it belongs to. It holds no pointers so the garbage
// collector never scans the logs.
type span struct {
	start, end int64
	op         int32 // id assigned at seam A; 0 outside the timed window
	n          int32 // bytes moved, where that applies
	kind       spanKind
}

// lane is an append-only span log owned by one probe.
type lane struct {
	mu    sync.Mutex
	spans []span
}

// recorder collects the lanes of one traced pass. All workloads are closed
// loops with one application thread and at most one request in flight, so
// "the op in progress" is a single number: seam A publishes it in op and
// every probe below stamps its spans with it.
type recorder struct {
	on atomic.Bool  // record only inside the timed window
	op atomic.Int32 // id of the application op in progress

	conns atomic.Int64 // connections dialed since the environment came up

	mu     sync.Mutex
	driver *lane
	links  map[string]*link
	order  []*link // links in creation order, for a stable trace file
	stores []*lane
}

// link is one transport connection seen from both ends.
type link struct {
	client, server lane
}

func newRecorder() *recorder {
	return &recorder{driver: &lane{}, links: make(map[string]*link)}
}

func (r *recorder) add(l *lane, kind spanKind, start int64, n int) {
	if !r.on.Load() {
		return
	}
	s := span{start: start, end: now(), op: r.op.Load(), n: int32(n), kind: kind}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// linkFor returns the link with the given key, creating it on first use:
// over TCP the accept side may see a connection before Dial has returned.
func (r *recorder) linkFor(key string) *link {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.links[key]
	if l == nil {
		l = &link{}
		r.links[key] = l
		r.order = append(r.order, l)
	}
	return l
}

// probeConn is seam C or S: it records every Read and Write of one end of a
// connection. Reads that return no bytes (EOF, errors) are not recorded.
type probeConn struct {
	net.Conn
	rec         *recorder
	lane        *lane
	read, write spanKind
}

func (c *probeConn) Read(p []byte) (int, error) {
	start := now()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rec.add(c.lane, c.read, start, n)
	}
	return n, err
}

func (c *probeConn) Write(p []byte) (int, error) {
	start := now()
	n, err := c.Conn.Write(p)
	c.rec.add(c.lane, c.write, start, n)
	return n, err
}

// probeClientConn wraps the client end of the connection identified by key.
func probeClientConn(c net.Conn, rec *recorder, key string) net.Conn {
	if rec == nil {
		return c
	}
	rec.conns.Add(1)
	return &probeConn{Conn: c, rec: rec, lane: &rec.linkFor(key).client, read: cRead, write: cWrite}
}

// probeServerConn wraps the server end of the connection identified by key.
func probeServerConn(c net.Conn, rec *recorder, key string) net.Conn {
	if rec == nil {
		return c
	}
	return &probeConn{Conn: c, rec: rec, lane: &rec.linkFor(key).server, read: sRead, write: sWrite}
}

// probeListener is seam S for a real listener: accepted connections are
// keyed by the client's address, which is the key Dial used.
type probeListener struct {
	net.Listener
	rec *recorder
}

func (l probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return probeServerConn(c, l.rec, c.RemoteAddr().String()), nil
}

func probeListen(l net.Listener, rec *recorder) net.Listener {
	if rec == nil {
		return l
	}
	return probeListener{Listener: l, rec: rec}
}

// probeDriver is seam D: the adio.Driver registered in place of the raw one.
type probeDriver struct {
	adio.Driver
	rec *recorder
}

func probeDrv(d adio.Driver, rec *recorder) adio.Driver {
	if rec == nil {
		return d
	}
	return &probeDriver{Driver: d, rec: rec}
}

func (d *probeDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.Driver.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	pf := &probeFile{File: f, rec: d.rec}
	// mpiio picks list I/O by asserting adio.VectorIO on the handle, so the
	// wrapper offers it exactly when the wrapped handle does.
	if vio, ok := f.(adio.VectorIO); ok {
		return &probeVecFile{probeFile: pf, vio: vio}, nil
	}
	return pf, nil
}

type probeFile struct {
	adio.File
	rec *recorder
}

func (f *probeFile) ReadAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := f.File.ReadAt(p, off)
	f.rec.add(f.rec.driver, dRead, start, n)
	return n, err
}

func (f *probeFile) WriteAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := f.File.WriteAt(p, off)
	f.rec.add(f.rec.driver, dWrite, start, n)
	return n, err
}

// FaultStats forwards core.FaultReporter so mpiio.File.FaultStats keeps
// working through the wrapper.
func (f *probeFile) FaultStats() core.FaultStats {
	if fr, ok := f.File.(core.FaultReporter); ok {
		return fr.FaultStats()
	}
	return core.FaultStats{}
}

type probeVecFile struct {
	*probeFile
	vio adio.VectorIO
}

func (f *probeVecFile) ReadAtVec(segs []adio.Vec) (int, error) {
	start := now()
	n, err := f.vio.ReadAtVec(segs)
	f.rec.add(f.rec.driver, dReadv, start, n)
	return n, err
}

func (f *probeVecFile) WriteAtVec(segs []adio.Vec) (int, error) {
	start := now()
	n, err := f.vio.WriteAtVec(segs)
	f.rec.add(f.rec.driver, dWritev, start, n)
	return n, err
}

// probeStore is seam T: the storage.Store behind one server's resource.
type probeStore struct {
	storage.Store
	rec  *recorder
	lane *lane
}

func probeSto(st storage.Store, rec *recorder) storage.Store {
	if rec == nil {
		return st
	}
	l := &lane{}
	rec.mu.Lock()
	rec.stores = append(rec.stores, l)
	rec.mu.Unlock()
	return &probeStore{Store: st, rec: rec, lane: l}
}

func (s *probeStore) Create(key string) (storage.Object, error) {
	o, err := s.Store.Create(key)
	if err != nil {
		return nil, err
	}
	return &probeObject{Object: o, st: s}, nil
}

func (s *probeStore) Open(key string) (storage.Object, error) {
	o, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return &probeObject{Object: o, st: s}, nil
}

type probeObject struct {
	storage.Object
	st *probeStore
}

func (o *probeObject) ReadAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := o.Object.ReadAt(p, off)
	o.st.rec.add(o.st.lane, tRead, start, n)
	return n, err
}

func (o *probeObject) WriteAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := o.Object.WriteAt(p, off)
	o.st.rec.add(o.st.lane, tWrite, start, n)
	return n, err
}

func (o *probeObject) Size() (int64, error) {
	start := now()
	n, err := o.Object.Size()
	o.st.rec.add(o.st.lane, tOther, start, 0)
	return n, err
}

func (o *probeObject) Truncate(size int64) error {
	start := now()
	err := o.Object.Truncate(size)
	o.st.rec.add(o.st.lane, tOther, start, 0)
	return err
}

func (o *probeObject) Sync() error {
	start := now()
	err := o.Object.Sync()
	o.st.rec.add(o.st.lane, tOther, start, 0)
	return err
}
