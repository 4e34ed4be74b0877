package srb

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"semplar/internal/netsim"
	"semplar/internal/storage"
)

// slowServer returns a server whose storage charges opLat per object I/O,
// so a write in flight holds the dispatch path open long enough for the
// test to race drain/shed machinery against it.
func slowServer(opLat time.Duration) *Server {
	return NewMemServer(storage.DeviceSpec{OpLatency: opLat})
}

// waitStats polls until pred(Stats()) holds or the deadline passes.
func waitStats(t *testing.T, srv *Server, what string, pred func(ServerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred(srv.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats = %+v", what, srv.Stats())
}

func TestServeReturnsErrServerClosed(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	// The listener works before shutdown.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(raw, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// Serving again on a drained server refuses immediately.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := srv.Serve(l2); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	srv := slowServer(100 * time.Millisecond)
	conn := connectTo(t, srv)
	f, err := conn.Open("/drain", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}

	wrote := make(chan error, 1)
	go func() {
		_, werr := f.WriteAt([]byte("survives the drain"), 0)
		wrote <- werr
	}()
	// Wait until the write is actually dispatching: once the inflight
	// gauge ticks, beginOp has marked the connection busy, so the drain
	// sweep is guaranteed to see it as in flight rather than idle.
	waitStats(t, srv, "write in flight", func(ServerStats) bool {
		return srv.inflight.Load() >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("in-flight write lost to drain: %v", err)
	}
	st := srv.Stats()
	if st.Drained < 1 {
		t.Fatalf("Drained = %d, want >= 1", st.Drained)
	}
	if st.OpenHandles != 0 {
		t.Fatalf("OpenHandles = %d after drain, want 0", st.OpenHandles)
	}
	if st.ActiveConns != 0 {
		t.Fatalf("ActiveConns = %d after drain, want 0", st.ActiveConns)
	}
}

// TestShutdownDrainsWriteBehind starts the drain while response 1 is
// blocked in transmission and request 2 has been dispatched behind it:
// both responses must still arrive intact, the request queued behind them
// is shed with ErrServerBusy, and the connection leaves no handle and no
// goroutine behind.
func TestShutdownDrainsWriteBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	h := startWBScript(t)
	h.awaitRead(t, 2)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- h.srv.Shutdown(ctx)
	}()
	waitStats(t, h.srv, "drain to begin", func(ServerStats) bool {
		return h.srv.isDraining()
	})

	h.checkChunk(t, h.recv(t, 10), 0)
	h.checkChunk(t, h.recv(t, 11), 1)
	shed := h.recv(t, 12)
	if err := statusToErr(shed.status, shed.msg, shed.value); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("queued request during drain = %v, want ErrServerBusy", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-h.served
	if st := h.srv.Stats(); st.OpenHandles != 0 || st.Shed != 1 {
		t.Fatalf("after drain: OpenHandles = %d, Shed = %d; want 0, 1", st.OpenHandles, st.Shed)
	}
	if n := h.store.n.Load(); n != 2 {
		t.Fatalf("%d ReadAts, want 2: the shed request must not reach storage", n)
	}
	waitStats(t, h.srv, "connection goroutines to exit", func(ServerStats) bool {
		return runtime.NumGoroutine() <= base
	})
}

func TestShutdownShedsNewConns(t *testing.T) {
	srv := slowServer(200 * time.Millisecond)
	conn := connectTo(t, srv)
	f, err := conn.Open("/busy", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	// A slow write holds the drain open while we probe it.
	wrote := make(chan error, 1)
	go func() {
		_, werr := f.WriteAt([]byte("hold the door"), 0)
		wrote <- werr
	}()
	waitStats(t, srv, "write in flight", func(ServerStats) bool {
		return srv.inflight.Load() >= 1
	})

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitStats(t, srv, "drain to begin", func(ServerStats) bool {
		return srv.isDraining()
	})

	// A connection arriving during the drain is refused: its handshake is
	// answered with ErrServerBusy and the conn is closed.
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	_, lateErr := NewConn(cEnd, "latecomer")
	if !errors.Is(lateErr, ErrServerBusy) {
		t.Fatalf("handshake during drain = %v, want ErrServerBusy", lateErr)
	}
	if !Retryable(lateErr) {
		t.Fatalf("drain-shed error %v not retryable", lateErr)
	}

	if err := <-wrote; err != nil {
		t.Fatalf("in-flight write lost: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := srv.Stats()
	if st.Shed < 1 {
		t.Fatalf("Shed = %d, want >= 1", st.Shed)
	}
	if st.OpenHandles != 0 {
		t.Fatalf("OpenHandles = %d, want 0", st.OpenHandles)
	}
}

func TestShutdownDeadlineForcesClose(t *testing.T) {
	srv := slowServer(300 * time.Millisecond)
	conn := connectTo(t, srv)
	f, err := conn.Open("/stuck", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, werr := f.WriteAt([]byte("too slow for the deadline"), 0)
		wrote <- werr
	}()
	waitStats(t, srv, "write in flight", func(ServerStats) bool {
		return srv.inflight.Load() >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
	<-wrote // outcome unspecified; it must simply not hang
	// The forced teardown still releases every handle.
	waitStats(t, srv, "handles released", func(st ServerStats) bool {
		return st.OpenHandles == 0 && st.ActiveConns == 0
	})
}

func TestConnCapSheds(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	srv.SetLimits(Limits{MaxConns: 1})

	conn := connectTo(t, srv)
	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}

	// The second connection is over the cap: its handshake is answered
	// with ErrServerBusy and the conn closed — a transient dial failure.
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	_, err := NewConn(cEnd, "overflow")
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap handshake = %v, want ErrServerBusy", err)
	}
	if !Retryable(err) {
		t.Fatal("over-cap shed not classified retryable")
	}
	if st := srv.Stats(); st.Shed < 1 {
		t.Fatalf("Shed = %d, want >= 1", st.Shed)
	}

	// The first connection is unaffected.
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("established conn after shed: %v", err)
	}

	// Once it leaves, a new connection is admitted.
	conn.Close()
	waitStats(t, srv, "conn slot free", func(st ServerStats) bool {
		return st.ActiveConns == 0
	})
	conn2 := connectTo(t, srv)
	if _, err := conn2.Ping(); err != nil {
		t.Fatalf("conn after slot freed: %v", err)
	}
}

func TestInflightCapSheds(t *testing.T) {
	srv := slowServer(150 * time.Millisecond)
	srv.SetLimits(Limits{MaxInflight: 1})
	conn1 := connectTo(t, srv)
	conn2 := connectTo(t, srv)

	f, err := conn1.Open("/hog", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, werr := f.WriteAt([]byte("occupies the only slot"), 0)
		wrote <- werr
	}()
	waitStats(t, srv, "write in flight", func(ServerStats) bool {
		return srv.inflight.Load() >= 1
	})

	// Over the in-flight cap: busy as a status error, connection kept.
	if _, err := conn2.Ping(); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("ping over inflight cap = %v, want ErrServerBusy", err)
	}
	if st := srv.Stats(); st.Shed < 1 {
		t.Fatalf("Shed = %d, want >= 1", st.Shed)
	}

	if err := <-wrote; err != nil {
		t.Fatalf("slot-holding write: %v", err)
	}
	// The same connection works once the slot frees — busy is not sticky.
	if _, err := conn2.Ping(); err != nil {
		t.Fatalf("ping after slot freed on same conn: %v", err)
	}
}

func TestKilledConnMidWriteReleasesHandles(t *testing.T) {
	srv := slowServer(100 * time.Millisecond)
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	conn, err := NewConn(cEnd, "victim")
	if err != nil {
		t.Fatal(err)
	}

	// Two open handles; one has a write in flight when the conn dies.
	f1, err := conn.Open("/k1", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Open("/k2", O_RDWR|O_CREATE, ""); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.OpenHandles != 2 {
		t.Fatalf("OpenHandles = %d, want 2", st.OpenHandles)
	}

	wrote := make(chan struct{})
	go func() {
		f1.WriteAt([]byte("never acknowledged"), 0)
		close(wrote)
	}()
	waitStats(t, srv, "write in flight", func(ServerStats) bool {
		return srv.inflight.Load() >= 1
	})
	cEnd.Kill()
	<-wrote

	// The server notices the reset when its next read fails and tears the
	// session down, releasing both handles.
	waitStats(t, srv, "session teardown", func(st ServerStats) bool {
		return st.ActiveConns == 0 && st.OpenHandles == 0
	})
}
