package srb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"semplar/internal/mcat"
	"semplar/internal/netsim"
	"semplar/internal/storage"
)

// startPair wires a fresh server and client over an unshaped simulated
// pipe.
func startPair(t *testing.T) (*Server, *Conn) {
	t.Helper()
	srv := NewMemServer(storage.DeviceSpec{})
	conn := connectTo(t, srv)
	return srv, conn
}

func connectTo(t *testing.T, srv *Server) *Conn {
	t.Helper()
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestHandshakeAndPing(t *testing.T) {
	_, conn := startPair(t)
	ts, err := conn.Ping()
	if err != nil || ts == 0 {
		t.Fatalf("ping = %d, %v", ts, err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/data", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("remote i/o over SRB")
	if n, err := f.WriteAt(msg, 0); err != nil || n != len(msg) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if sz, err := f.Size(); err != nil || sz != int64(len(msg)) {
		t.Fatalf("size = %d, %v", sz, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed handle is rejected.
	if _, err := f.ReadAt(got, 0); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("read on closed handle = %v", err)
	}
}

func TestReadPastEOF(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/f", O_RDWR|O_CREATE, "")
	f.WriteAt([]byte("12345"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || err != io.EOF {
		t.Fatalf("short read = %d, %v; want 5, EOF", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Fatalf("past-EOF read = %d, %v", n, err)
	}
}

func TestOpenFlags(t *testing.T) {
	_, conn := startPair(t)
	if _, err := conn.Open("/missing", O_RDONLY, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing = %v", err)
	}
	f, err := conn.Open("/f", O_WRONLY|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("data"), 0)
	// Reading a write-only handle fails.
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("read on wronly = %v", err)
	}
	f.Close()

	// O_EXCL on an existing file.
	if _, err := conn.Open("/f", O_RDWR|O_CREATE|O_EXCL, ""); !errors.Is(err, ErrExists) {
		t.Fatalf("excl = %v", err)
	}

	// O_TRUNC clears content.
	f2, err := conn.Open("/f", O_RDWR|O_TRUNC, "")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := f2.Size(); sz != 0 {
		t.Fatalf("size after trunc = %d", sz)
	}
	// Write on read-only handle fails.
	f2.WriteAt([]byte("x"), 0)
	f2.Close()
	f3, _ := conn.Open("/f", O_RDONLY, "")
	if _, err := f3.WriteAt([]byte("y"), 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("write on rdonly = %v", err)
	}
}

// TestConcurrentCreateOpen is the regression for the create-or-open race:
// sessions that open one new path at the same moment must agree on one
// file. With O_CREATE every open succeeds; with O_CREATE|O_EXCL exactly one
// wins and the rest get ErrExists.
func TestConcurrentCreateOpen(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name    string
		flags   int
		winners int
	}{
		{"create", O_RDWR | O_CREATE, n},
		{"create-excl", O_RDWR | O_CREATE | O_EXCL, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewMemServer(storage.DeviceSpec{})
			conns := make([]*Conn, n)
			for i := range conns {
				conns[i] = connectTo(t, srv)
			}
			files := make([]*File, n)
			errs := make([]error, n)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, c := range conns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					files[i], errs[i] = c.Open("/race", tc.flags, "")
				}()
			}
			close(start)
			wg.Wait()

			var won []*File
			for i, err := range errs {
				switch {
				case err == nil:
					won = append(won, files[i])
				case tc.winners == n || !errors.Is(err, ErrExists):
					t.Errorf("open %d: %v", i, err)
				}
			}
			if len(won) != tc.winners {
				t.Fatalf("%d opens succeeded, want %d", len(won), tc.winners)
			}
			// One file: a byte written through each handle is visible
			// through every other, and the store holds one object.
			for i, f := range won {
				if _, err := f.WriteAt([]byte{byte(i + 1)}, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range won {
				got := make([]byte, len(won))
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				for i, b := range got {
					if b != byte(i+1) {
						t.Fatalf("byte %d = %d through another handle, want %d", i, b, i+1)
					}
				}
			}
			if keys := srv.Resource("mem").Keys(); len(keys) != 1 {
				t.Fatalf("store holds %d objects, want 1", len(keys))
			}
		})
	}
}

func TestCollectionsOverWire(t *testing.T) {
	_, conn := startPair(t)
	if err := conn.Mkdir("/proj"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Mkdir("/proj"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup mkdir = %v", err)
	}
	for i := 0; i < 3; i++ {
		f, err := conn.Open(fmt.Sprintf("/proj/f%d", i), O_WRONLY|O_CREATE, "")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(bytes.Repeat([]byte{'x'}, i*10), 0)
		f.Close()
	}
	ls, err := conn.List("/proj")
	if err != nil || len(ls) != 3 {
		t.Fatalf("list = %d entries, %v", len(ls), err)
	}
	if ls[1].Path != "/proj/f1" || ls[1].Size != 10 || ls[1].IsDir {
		t.Fatalf("entry = %+v", ls[1])
	}
	st, err := conn.Stat("/proj")
	if err != nil || !st.IsDir {
		t.Fatalf("stat dir = %+v, %v", st, err)
	}
	if err := conn.Rmdir("/proj"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir nonempty = %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := conn.Unlink(fmt.Sprintf("/proj/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Rmdir("/proj"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Stat("/proj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat removed = %v", err)
	}
}

func TestAttrsAndRename(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/f", O_WRONLY|O_CREATE, "")
	f.Close()
	if err := conn.SetAttr("/f", "experiment", "fig8"); err != nil {
		t.Fatal(err)
	}
	v, err := conn.GetAttr("/f", "experiment")
	if err != nil || v != "fig8" {
		t.Fatalf("attr = %q, %v", v, err)
	}
	if _, err := conn.GetAttr("/f", "none"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing attr = %v", err)
	}
	if err := conn.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Stat("/g"); err != nil {
		t.Fatal(err)
	}
}

func TestResourcesOverWire(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	srv.AddResource("disk2", "disk", storage.NewMemStore())
	conn := connectTo(t, srv)
	rs, err := conn.Resources()
	if err != nil {
		t.Fatal(err)
	}
	if rs["mem"] != "memory" || rs["disk2"] != "disk" {
		t.Fatalf("resources = %v", rs)
	}
}

func TestUnlinkRemovesPhysical(t *testing.T) {
	srv, conn := startPair(t)
	f, _ := conn.Open("/f", O_WRONLY|O_CREATE, "")
	f.WriteAt([]byte("bytes"), 0)
	f.Close()
	if err := conn.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	// Physical store must be empty again.
	st := srv.resources["mem"]
	if keys := st.Keys(); len(keys) != 0 {
		t.Fatalf("physical objects remain: %v", keys)
	}
}

func TestLargeTransferChunking(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/big", O_RDWR|O_CREATE, "")
	src := make([]byte, MaxChunk+MaxChunk/2+123)
	rand.New(rand.NewSource(2)).Read(src)
	if n, err := f.WriteAt(src, 0); err != nil || n != len(src) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, len(src))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(src) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("large transfer corrupted")
	}
}

func TestSharedFileStripedWriters(t *testing.T) {
	// Each "node" opens its own connection and writes its stripe of a
	// shared file — the SEMPLAR access pattern.
	srv := NewMemServer(storage.DeviceSpec{})
	const nodes = 6
	const stripe = 8 << 10
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cEnd, sEnd := netsim.Pipe(0, nil, nil)
			go srv.ServeConn(sEnd)
			conn, err := NewConn(cEnd, fmt.Sprintf("rank%d", r))
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			defer conn.Close()
			f, err := conn.Open("/shared", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Errorf("rank %d open: %v", r, err)
				return
			}
			defer f.Close()
			data := bytes.Repeat([]byte{byte('A' + r)}, stripe)
			if _, err := f.WriteAt(data, int64(r*stripe)); err != nil {
				t.Errorf("rank %d write: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	conn := connectTo(t, srv)
	f, err := conn.Open("/shared", O_RDONLY, "")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != nodes*stripe {
		t.Fatalf("size = %d want %d", sz, nodes*stripe)
	}
	for r := 0; r < nodes; r++ {
		buf := make([]byte, stripe)
		if _, err := f.ReadAt(buf, int64(r*stripe)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != byte('A'+r) {
				t.Fatalf("stripe %d corrupted (got %c)", r, b)
			}
		}
	}
}

func TestServerStats(t *testing.T) {
	srv, conn := startPair(t)
	f, _ := conn.Open("/f", O_RDWR|O_CREATE, "")
	f.WriteAt(make([]byte, 1000), 0)
	f.ReadAt(make([]byte, 500), 0)
	st := srv.Stats()
	if st.Connections != 1 || st.BytesWritten != 1000 || st.BytesRead != 500 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Requests < 3 {
		t.Fatalf("requests = %d", st.Requests)
	}
}

// TestContiguousFrameCounts pins the frames a contiguous transfer costs on
// one connection: one request per MaxChunk of data, the one-entry table
// riding along, so a full-chunk segment is one frame rather than a chunk
// and a straggler.
func TestContiguousFrameCounts(t *testing.T) {
	srv, conn := startPair(t)
	f, err := conn.Open("/frames", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 2*MaxChunk+1)
	for i := range p {
		p[i] = byte(i * 7)
	}
	got := make([]byte, len(p))
	for _, tc := range []struct {
		name   string
		frames int64
		n      int
		call   func() (int, error)
	}{
		{"WriteAt", 3, len(p), func() (int, error) { return f.WriteAt(p, 0) }},
		{"ReadAt", 3, len(p), func() (int, error) { return f.ReadAt(got, 0) }},
		{"WriteAtVec", 1, MaxChunk, func() (int, error) { return f.WriteAtVec([]WriteSeg{{Off: 0, Data: p[:MaxChunk]}}) }},
	} {
		before := srv.Stats().Requests
		if n, err := tc.call(); n != tc.n || err != nil {
			t.Fatalf("%s = %d, %v; want %d", tc.name, n, err, tc.n)
		}
		if d := srv.Stats().Requests - before; d != tc.frames {
			t.Errorf("%s of %d bytes cost %d requests, want %d", tc.name, tc.n, d, tc.frames)
		}
	}
	if !bytes.Equal(got, p) {
		t.Fatal("ReadAt returned other bytes than WriteAt stored")
	}
}

// fillingObj stores at most room bytes of each WriteAt and fails the rest,
// like a device that fills mid-write: it returns n > 0 with an error.
type fillingObj struct {
	storage.Object
	room int
}

func (o fillingObj) WriteAt(p []byte, off int64) (int, error) {
	if len(p) <= o.room {
		return o.Object.WriteAt(p, off)
	}
	n, err := o.Object.WriteAt(p[:o.room], off)
	if err == nil {
		err = errMedia
	}
	return n, err
}

// TestPartialWriteIsAccounted: when the store keeps a prefix of a write and
// then fails, the request fails, but the catalog size, the owner's quota
// usage and BytesWritten still cover every byte the store kept.
func TestPartialWriteIsAccounted(t *testing.T) {
	for _, tc := range []struct {
		name          string
		req           *request
		size, written int64 // stored end of file and bytes stored, with room = 40
	}{
		{"write", writevReq(0, 1, 0, make([]byte, 100)), 40, 40},
		{"writev", &request{op: opWritev, handle: 1, data: packWritev([]writeSeg{
			{off: 0, data: make([]byte, 30)},
			{off: 50, data: make([]byte, 100)},
		})}, 90, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewMemServer(storage.DeviceSpec{})
			e, err := srv.cat.CreateFileAs("/p", "mem", "acme")
			if err != nil {
				t.Fatal(err)
			}
			obj, err := srv.Resource("mem").Create(e.PhysicalKey)
			if err != nil {
				t.Fatal(err)
			}
			sess := &session{srv: srv, files: map[int32]*openFile{
				1: {obj: fillingObj{obj, 40}, path: "/p", flags: O_RDWR},
			}}
			resp := sess.dispatch(tc.req)
			if err := statusToErr(resp.status, resp.msg, resp.value); !errors.Is(err, ErrIO) {
				t.Fatalf("partial write = %v, want ErrIO", err)
			}
			stored, _ := obj.Size()
			e, _ = srv.cat.Lookup("/p")
			if stored != tc.size || e.Size != stored || srv.cat.Usage("acme") != stored {
				t.Fatalf("stored %d (want %d), catalog size %d, usage %d", stored, tc.size, e.Size, srv.cat.Usage("acme"))
			}
			if got := srv.Stats().BytesWritten; got != tc.written {
				t.Fatalf("BytesWritten = %d, want %d", got, tc.written)
			}
		})
	}
}

// TestWritevGrowsCatalogOnce: a vector that extends the file updates the
// catalog once, not once per segment, so an extending 64-segment writev
// journals a single JGrowSize record. The recorded size is the furthest
// byte the store acknowledged, also when the store fails mid-vector.
func TestWritevGrowsCatalogOnce(t *testing.T) {
	const nseg, failAt = 64, 40
	segs := make([]writeSeg, nseg)
	for i := range segs {
		segs[i] = writeSeg{off: int64(i) * 200, data: make([]byte, 50)}
	}
	// With room 60, segment failAt stores 60 of its 100 bytes and fails.
	segs[failAt].data = make([]byte, 100)
	for _, tc := range []struct {
		name          string
		room          int
		size, written int64
	}{
		{"healthy", 1 << 20, (nseg-1)*200 + 50, (nseg-1)*50 + 100},
		{"store fails mid-vector", 60, failAt*200 + 60, failAt*50 + 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewMemServer(storage.DeviceSpec{})
			e, err := srv.cat.CreateFileAs("/v", "mem", "acme")
			if err != nil {
				t.Fatal(err)
			}
			obj, err := srv.Resource("mem").Create(e.PhysicalKey)
			if err != nil {
				t.Fatal(err)
			}
			j := mcat.NewMemJournal()
			srv.cat.SetJournal(j)
			sess := &session{srv: srv, files: map[int32]*openFile{
				1: {obj: fillingObj{obj, tc.room}, path: "/v", flags: O_RDWR},
			}}
			sess.dispatch(&request{op: opWritev, handle: 1, data: packWritev(segs)})
			grows := 0
			for _, r := range j.Records() {
				if r.Op == mcat.JGrowSize {
					grows++
				}
			}
			if grows != 1 {
				t.Fatalf("%d JGrowSize records for one extending writev, want 1", grows)
			}
			stored, _ := obj.Size()
			e, _ = srv.cat.Lookup("/v")
			if stored != tc.size || e.Size != tc.size || srv.cat.Usage("acme") != tc.size {
				t.Fatalf("stored %d, catalog size %d, usage %d; want %d", stored, e.Size, srv.cat.Usage("acme"), tc.size)
			}
			if got := srv.Stats().BytesWritten; got != tc.written {
				t.Fatalf("BytesWritten = %d, want %d", got, tc.written)
			}
		})
	}
}

func TestOverTCP(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	conn, err := Dial(l.Addr().String(), "tcpuser")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/tcp-file", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abc"), 50000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("tcp round trip corrupted")
	}
}

func TestCallAfterClose(t *testing.T) {
	_, conn := startPair(t)
	conn.Close()
	if _, err := conn.Ping(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("ping after close = %v", err)
	}
}

func TestConcurrentCallsOneConn(t *testing.T) {
	// Calls on one connection serialize but must not interleave
	// corruptly.
	_, conn := startPair(t)
	f, _ := conn.Open("/c", O_RDWR|O_CREATE, "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('0' + i)}, 1024)
			if _, err := f.WriteAt(data, int64(i)*1024); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		buf := make([]byte, 1024)
		if _, err := f.ReadAt(buf, int64(i)*1024); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if buf[0] != byte('0'+i) || buf[1023] != byte('0'+i) {
			t.Fatalf("slot %d corrupted", i)
		}
	}
}

func TestTruncateOverWire(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/t", O_RDWR|O_CREATE, "")
	f.WriteAt(make([]byte, 100), 0)
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 10 {
		t.Fatalf("size = %d", sz)
	}
	st, _ := conn.Stat("/t")
	if st.Size != 10 {
		t.Fatalf("catalog size = %d", st.Size)
	}
}

func TestFstatUnlinkedHandle(t *testing.T) {
	// Stat through a handle whose catalog entry was unlinked: POSIX
	// semantics keep the open object usable.
	_, conn := startPair(t)
	f, _ := conn.Open("/ephemeral", O_RDWR|O_CREATE, "")
	defer f.Close()
	f.WriteAt([]byte("still here"), 0)
	if err := conn.Unlink("/ephemeral"); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatalf("fstat after unlink: %v", err)
	}
	if fi.Size != 10 {
		t.Fatalf("size = %d", fi.Size)
	}
	// Data is still readable through the handle.
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "still here" {
		t.Fatalf("got %q", buf)
	}
}

func TestFilePath(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/named", O_WRONLY|O_CREATE, "")
	defer f.Close()
	if f.Path() != "/named" {
		t.Fatalf("path = %q", f.Path())
	}
}

func TestServerMkdirAll(t *testing.T) {
	srv, conn := startPair(t)
	if err := srv.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	st, err := conn.Stat("/a/b/c")
	if err != nil || !st.IsDir {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	// Idempotent.
	if err := srv.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestSyncThroughWire(t *testing.T) {
	_, conn := startPair(t)
	f, _ := conn.Open("/s", O_RDWR|O_CREATE, "")
	defer f.Close()
	f.WriteAt([]byte("flush me"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync on a closed handle fails with ErrBadHandle.
	f2, _ := conn.Open("/s2", O_RDWR|O_CREATE, "")
	f2.Close()
	if err := f2.Sync(); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("sync closed = %v", err)
	}
}

func TestHandshakeAgainstGarbage(t *testing.T) {
	// A client connecting to something that is not an SRB server must
	// fail the handshake, not hang or panic.
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go func() {
		// "Server" sends garbage then closes.
		sEnd.Write([]byte("HTTP/1.1 200 OK\r\n\r\n notsrb notsrb notsrb"))
		sEnd.Close()
	}()
	if _, err := NewConn(cEnd, "x"); err == nil {
		t.Fatal("handshake against garbage succeeded")
	}
}

func TestResponseSeqMismatch(t *testing.T) {
	// A server replying with the wrong sequence number poisons the
	// connection.
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go func() {
		br := bufio.NewReader(sEnd)
		bw := bufio.NewWriter(sEnd)
		for {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			writeResponse(bw, &response{seq: req.seq + 7, value: protoVer})
			bw.Flush()
		}
	}()
	if _, err := NewConn(cEnd, "x"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("seq mismatch = %v", err)
	}
}

func TestStatusErrorMapping(t *testing.T) {
	// Every status code has a row in the error table: it round-trips
	// status -> err -> status instead of decoding to the statusIO fallback.
	for st := statusOK + 1; st < numStatus; st++ {
		err := statusToErr(st, "", 0)
		if back, _ := errToStatus(err); back != st {
			t.Errorf("status %d -> %v -> %d", st, err, back)
		}
	}
	if st, msg := errToStatus(errors.New("weird io thing")); st != statusIO || msg == "" {
		t.Errorf("opaque error -> %d %q", st, msg)
	}
	if statusToErr(statusOK, "", 0) != nil {
		t.Error("ok status mapped to error")
	}
	if err := statusToErr(statusIO, "disk on fire", 0); err == nil ||
		!strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("message lost: %v", err)
	}
	// statusRateLimited decodes the value field as a retry-after hint.
	err := statusToErr(statusRateLimited, "", int64(250*time.Millisecond))
	var rl *RateLimitedError
	if !errors.As(err, &rl) || rl.RetryAfter != 250*time.Millisecond {
		t.Errorf("rate-limited hint lost: %v", err)
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Errorf("RateLimitedError does not unwrap to ErrRateLimited: %v", err)
	}
}
