package core

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"semplar/internal/adio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// memDialer returns a DialFunc serving a fresh in-memory SRB server over
// unshaped pipes.
func memDialer(srv *srb.Server) DialFunc {
	return func() (net.Conn, error) {
		c, s := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(s)
		return c, nil
	}
}

func newTestFS(t *testing.T, streams int) (*srb.Server, *SRBFS) {
	t.Helper()
	srv := srb.NewMemServer(storage.DeviceSpec{})
	fs, err := NewSRBFS(SRBFSConfig{
		Dial:       memDialer(srv),
		Streams:    streams,
		StripeSize: 1 << 10, // small stripes exercise splitting
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, fs
}

func TestSRBFSSingleStreamRoundTrip(t *testing.T) {
	_, fs := newTestFS(t, 1)
	f, err := fs.Open("/file", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := bytes.Repeat([]byte("semplar"), 999)
	if n, err := f.WriteAt(data, 17); err != nil || n != len(data) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 17); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestSRBFSMultiStreamRoundTrip(t *testing.T) {
	for _, streams := range []int{2, 3, 5} {
		srv, fs := newTestFS(t, streams)
		f, err := fs.Open("/file", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.(*srbFile).Streams(); got != streams {
			t.Fatalf("streams = %d want %d", got, streams)
		}
		// Server must see one connection per stream.
		if got := srv.Stats().ActiveConns; got != int64(streams) {
			t.Fatalf("server conns = %d want %d", got, streams)
		}
		src := make([]byte, 10240+333) // spans many 1 KiB stripes, unaligned tail
		rand.New(rand.NewSource(int64(streams))).Read(src)
		if n, err := f.WriteAt(src, 500); err != nil || n != len(src) {
			t.Fatalf("write = %d, %v", n, err)
		}
		got := make([]byte, len(src))
		if n, err := f.ReadAt(got, 500); err != nil || n != len(src) {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("streams=%d: striped data corrupted", streams)
		}
		if sz, err := f.Size(); err != nil || sz != int64(500+len(src)) {
			t.Fatalf("size = %d, %v", sz, err)
		}
		f.Close()
		// Server-side teardown is asynchronous; allow it to settle.
		deadline := time.Now().Add(2 * time.Second)
		for srv.Stats().ActiveConns != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := srv.Stats().ActiveConns; got != 0 {
			t.Fatalf("connections leaked: %d", got)
		}
	}
}

func TestSRBFSShortRead(t *testing.T) {
	_, fs := newTestFS(t, 2)
	f, _ := fs.Open("/short", adio.O_RDWR|adio.O_CREATE, nil)
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{'z'}, 3000), 0)
	buf := make([]byte, 5000)
	n, err := f.ReadAt(buf, 0)
	if n != 3000 || err != io.EOF {
		t.Fatalf("short read = %d, %v; want 3000, EOF", n, err)
	}
}

func TestSRBFSStreamsHint(t *testing.T) {
	_, fs := newTestFS(t, 1)
	f, err := fs.Open("/hinted", adio.O_RDWR|adio.O_CREATE,
		adio.Hints{"streams": "3", "stripe_size": "512"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sf := f.(*srbFile)
	if sf.Streams() != 3 || sf.stripe != 512 {
		t.Fatalf("streams=%d stripe=%d", sf.Streams(), sf.stripe)
	}
	if _, err := fs.Open("/bad", adio.O_CREATE, adio.Hints{"streams": "zero"}); err == nil {
		t.Fatal("bad streams hint accepted")
	}
	if _, err := fs.Open("/bad", adio.O_CREATE, adio.Hints{"stripe_size": "-1"}); err == nil {
		t.Fatal("bad stripe hint accepted")
	}
}

func TestSRBFSDelete(t *testing.T) {
	_, fs := newTestFS(t, 1)
	f, _ := fs.Open("/doomed", adio.O_WRONLY|adio.O_CREATE, nil)
	f.WriteAt([]byte("x"), 0)
	f.Close()
	if err := fs.Delete("/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/doomed", adio.O_RDONLY, nil); err == nil {
		t.Fatal("open deleted file")
	}
}

func TestSRBFSTruncFlagOnce(t *testing.T) {
	// With multiple streams, only the first open truncates; otherwise
	// stream 2's open would wipe what stream 1 wrote.
	_, fs := newTestFS(t, 1)
	f, _ := fs.Open("/t", adio.O_WRONLY|adio.O_CREATE, nil)
	f.WriteAt([]byte("previous content"), 0)
	f.Close()

	f2, err := fs.Open("/t", adio.O_RDWR|adio.O_TRUNC, adio.Hints{"streams": "3"})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if sz, _ := f2.Size(); sz != 0 {
		t.Fatalf("size after trunc open = %d", sz)
	}
	f2.WriteAt([]byte("new"), 0)
	if sz, _ := f2.Size(); sz != 3 {
		t.Fatalf("size = %d", sz)
	}
}

// TestSRBFSWireShape pins the request count of each data path over 2
// streams: a scalar write sends one frame per stripe, pipelined on its
// stream; a vector write sends one opWritev per stream, however many
// segments the stream carries; a lone stripe is one request.
func TestSRBFSWireShape(t *testing.T) {
	srv, fs := newTestFS(t, 2) // 1 KiB stripes
	f, err := fs.Open("/shape", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Eight 512 B segments, one in each of eight stripes: four per stream.
	var vecs []adio.Vec
	for i := int64(0); i < 8; i++ {
		vecs = append(vecs, adio.Vec{Off: i<<10 + 256, Buf: make([]byte, 512)})
	}
	for _, c := range []struct {
		name     string
		write    func() (int, error)
		want     int
		requests int64
	}{
		{"8-stripe WriteAt", func() (int, error) { return f.WriteAt(make([]byte, 8<<10), 0) }, 8 << 10, 8},
		{"8-segment WriteAtVec", func() (int, error) { return f.WriteAtVec(vecs) }, 8 * 512, 2},
		{"1-stripe WriteAt", func() (int, error) { return f.WriteAt(make([]byte, 1<<10), 0) }, 1 << 10, 1},
	} {
		before := srv.Stats().Requests
		if n, err := c.write(); err != nil || n != c.want {
			t.Fatalf("%s = %d, %v", c.name, n, err)
		}
		if got := srv.Stats().Requests - before; got != c.requests {
			t.Fatalf("%s over 2 streams cost %d requests, want %d", c.name, got, c.requests)
		}
	}
}

// gatedConn passes the first left bytes written once armed and holds every
// later byte until open is closed. Unarmed (left < 0) it passes everything.
type gatedConn struct {
	net.Conn
	mu   sync.Mutex
	left int64 // guarded by mu
	open chan struct{}
}

func (c *gatedConn) arm(n int64) {
	c.mu.Lock()
	c.left = n
	c.mu.Unlock()
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	pass := int64(len(p))
	if c.left >= 0 {
		pass = min(pass, c.left)
		c.left -= pass
	}
	c.mu.Unlock()
	n := 0
	if pass > 0 {
		var err error
		if n, err = c.Conn.Write(p[:pass]); err != nil {
			return n, err
		}
	}
	if n == len(p) {
		return n, nil
	}
	<-c.open
	m, err := c.Conn.Write(p[n:])
	return n + m, err
}

// writeSpy reports the offset of every object WriteAt as it starts.
type writeSpy struct {
	storage.Store
	writes chan int64
}

func (s *writeSpy) Create(key string) (storage.Object, error) {
	obj, err := s.Store.Create(key)
	return spiedObj{obj, s}, err
}

func (s *writeSpy) Open(key string) (storage.Object, error) {
	obj, err := s.Store.Open(key)
	return spiedObj{obj, s}, err
}

type spiedObj struct {
	storage.Object
	s *writeSpy
}

func (o spiedObj) WriteAt(p []byte, off int64) (int, error) {
	select {
	case o.s.writes <- off:
	default: // nobody is counting any more; never stall the server
	}
	return o.Object.WriteAt(p, off)
}

// TestStripedWriteStoresWhileSending pins the overlap pipelined stripe
// writes buy: stream 0 carries stripes 0 and 2 of a 4-stripe WriteAt, and
// its connection holds back every byte past the first stripe and a half.
// The server must store stream 0's first stripe while its second is still
// held back, which it cannot do if the stream's stripes share one frame.
func TestStripedWriteStoresWhileSending(t *testing.T) {
	const stripe = 64 << 10
	spy := &writeSpy{Store: storage.NewMemStore(), writes: make(chan int64, 64)}
	srv := srb.NewServer()
	srv.AddResource("mem", "memory", spy)
	gate := &gatedConn{left: -1, open: make(chan struct{})}
	dials := 0
	fs, err := NewSRBFS(SRBFSConfig{
		Dial: func() (net.Conn, error) {
			c, s := netsim.Pipe(0, nil, nil)
			go srv.ServeConn(s)
			if dials++; dials == 1 {
				gate.Conn = c
				return gate, nil
			}
			return c, nil
		},
		Streams:    2,
		StripeSize: stripe,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/overlap", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var release sync.Once
	defer release.Do(func() { close(gate.open) }) // a failed wait must not strand the writer under Close

	payload := make([]byte, 4*stripe)
	rand.New(rand.NewSource(3)).Read(payload)
	gate.arm(stripe + stripe/2)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := f.WriteAt(payload, 0)
		done <- result{n, err}
	}()

	// The deadline only turns a server that never gets there into a
	// failure instead of a hang.
	timeout := time.After(5 * time.Second)
	for stored := false; !stored; {
		select {
		case off := <-spy.writes:
			stored = off/stripe%2 == 0 // stripes 0 and 2 are stream 0's
		case <-timeout:
			t.Fatal("stream 0's first stripe was not stored while its second was held back")
		}
	}
	release.Do(func() { close(gate.open) })
	if r := <-done; r.err != nil || r.n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", r.n, r.err)
	}
	got := make([]byte, len(payload))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) || !bytes.Equal(got, payload) {
		t.Fatalf("readback = %d, %v, intact=%v", n, err, bytes.Equal(got, payload))
	}
}

func TestSRBFSConcurrentHandles(t *testing.T) {
	// The paper's double-connection trick: open the same file twice and
	// drive both handles concurrently with async requests.
	srv := srb.NewMemServer(storage.DeviceSpec{})
	fs, _ := NewSRBFS(SRBFSConfig{Dial: memDialer(srv)})
	f1, err := fs.Open("/dual", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Open("/dual", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	defer f2.Close()

	eng := NewEngine(2)
	defer eng.Close()
	const half = 64 << 10
	a := bytes.Repeat([]byte{'A'}, half)
	b := bytes.Repeat([]byte{'B'}, half)
	r1 := eng.Submit(func() (int, error) { return f1.WriteAt(a, 0) })
	r2 := eng.Submit(func() (int, error) { return f2.WriteAt(b, half) })
	if _, err := r1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Wait(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*half)
	if _, err := f1.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 'A' || got[half] != 'B' || got[2*half-1] != 'B' {
		t.Fatal("dual-handle write corrupted")
	}
}

func TestSRBFSTwoStreamsFasterOnWAN(t *testing.T) {
	// On a window-limited WAN path, two streams must beat one
	// substantially (Figure 8's mechanism).
	if testing.Short() {
		t.Skip("timing test")
	}
	prof := netsim.DAS2().Scaled(40)
	run := func(streams int) float64 {
		net0 := netsim.NewNetwork(prof, 1)
		srv := srb.NewMemServer(storage.DeviceSpec{})
		fs, _ := NewSRBFS(SRBFSConfig{
			Dial: func() (net.Conn, error) {
				c, s := net0.Dial(0)
				go srv.ServeConn(s)
				return c, nil
			},
			Streams: streams,
			// One big write per phase, split across the streams:
			// stripe = transfer size / streams.
			StripeSize: 2 << 20,
		})
		f, err := fs.Open("/wan", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		payload := make([]byte, 4<<20)
		start := time.Now()
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		return float64(len(payload)) / time.Since(start).Seconds()
	}
	one := run(1)
	two := run(2)
	t.Logf("1 stream %.1f MB/s, 2 streams %.1f MB/s", one/(1<<20), two/(1<<20))
	if two < one*14/10 {
		t.Fatalf("2 streams %.0f B/s vs 1 stream %.0f B/s; want ~2x", two, one)
	}
}

func TestSRBFSParallelNodes(t *testing.T) {
	// Several nodes write disjoint stripes of one shared file through
	// separate driver opens (the SEMPLAR cluster pattern).
	srv := srb.NewMemServer(storage.DeviceSpec{})
	fs, _ := NewSRBFS(SRBFSConfig{Dial: memDialer(srv)})
	const nodes = 5
	const chunk = 8 << 10
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := fs.Open("/shared", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				errs[r] = err
				return
			}
			defer f.Close()
			_, errs[r] = f.WriteAt(bytes.Repeat([]byte{byte('a' + r)}, chunk), int64(r*chunk))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", r, err)
		}
	}
	f, _ := fs.Open("/shared", adio.O_RDONLY, nil)
	defer f.Close()
	buf := make([]byte, nodes*chunk)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for r := 0; r < nodes; r++ {
		if buf[r*chunk] != byte('a'+r) {
			t.Fatalf("node %d stripe corrupted", r)
		}
	}
}
