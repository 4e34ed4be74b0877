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

// TestSRBFSCoalescesPerStream pins the wire shape of a striped write: a
// stream that carries several stripes of one WriteAt sends them as one
// vectored request, and a lone stripe is one plain write.
func TestSRBFSCoalescesPerStream(t *testing.T) {
	srv, fs := newTestFS(t, 2) // 1 KiB stripes
	f, err := fs.Open("/coalesce", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range []struct{ stripes, requests int64 }{{8, 2}, {1, 1}} {
		before := srv.Stats().Requests
		buf := make([]byte, c.stripes<<10)
		if n, err := f.WriteAt(buf, 0); err != nil || n != len(buf) {
			t.Fatalf("%d-stripe write = %d, %v", c.stripes, n, err)
		}
		if got := srv.Stats().Requests - before; got != c.requests {
			t.Fatalf("%d-stripe write over 2 streams cost %d requests, want %d", c.stripes, got, c.requests)
		}
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
