package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/adio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// fastRetry is a test-friendly policy: quick backoff, plenty of attempts.
func fastRetry() srb.RetryPolicy {
	return srb.RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		OpTimeout:   5 * time.Second,
	}
}

// trackingDialer dials fresh pipes against srv and records every client
// endpoint so tests can inject faults on specific connections.
type trackingDialer struct {
	mu       sync.Mutex
	srv      *srb.Server
	conns    []*netsim.Conn
	faultNew func(*netsim.Conn) // guarded by mu; applied to each new conn before use
}

func newTrackingDialer(srv *srb.Server) *trackingDialer {
	return &trackingDialer{srv: srv}
}

func (d *trackingDialer) dial() (net.Conn, error) {
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go d.srv.ServeConn(sEnd)
	d.mu.Lock()
	d.conns = append(d.conns, cEnd)
	fault := d.faultNew
	d.mu.Unlock()
	if fault != nil {
		fault(cEnd)
	}
	return cEnd, nil
}

// faultFuture installs a fault applied to every subsequently dialed
// connection before the client sees it — unlike faulting d.conns in a
// loop, replacements dialed during recovery can never slip through a
// fault-free window.
func (d *trackingDialer) faultFuture(f func(*netsim.Conn)) {
	d.mu.Lock()
	d.faultNew = f
	d.mu.Unlock()
}

func (d *trackingDialer) conn(i int) *netsim.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[i]
}

func (d *trackingDialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func faultFS(t *testing.T, cfg SRBFSConfig) (*trackingDialer, *SRBFS) {
	t.Helper()
	srv := srb.NewMemServer(storage.DeviceSpec{})
	d := newTrackingDialer(srv)
	cfg.Dial = d.dial
	if cfg.StripeSize == 0 {
		cfg.StripeSize = 64 << 10
	}
	fs, err := NewSRBFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, fs
}

func TestReconnectReplaysStripedWrite(t *testing.T) {
	d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: fastRetry()})
	f, err := fs.Open("/armored", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill stream 1's connection mid-transfer: it dies inside its first
	// 64 KiB stripe.
	d.conn(1).FaultAfter(32<<10, netsim.FaultClose)

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	n, err := f.WriteAt(payload, 0)
	if err != nil {
		t.Fatalf("striped write across killed stream: %v", err)
	}
	if n != len(payload) {
		t.Fatalf("recovered write reported %d bytes, want %d", n, len(payload))
	}
	// Every piece in flight on the dead stream sees it fail; the stream's
	// generation check makes that one redial, not one per piece.
	st := f.(*srbFile).FaultStats()
	if st.Reconnects != 1 {
		t.Fatalf("%d reconnects for one dead connection, want 1: %+v", st.Reconnects, st)
	}
	if st.RetriedOps < 1 {
		t.Fatalf("no replayed op recorded: %+v", st)
	}
	if d.count() < 3 {
		t.Fatalf("no replacement connection dialed (%d total)", d.count())
	}
	f.Close()

	// Byte-exact verification through a fresh handle.
	f2, err := fs.Open("/armored", adio.O_RDONLY, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, len(payload))
	if n, err := f2.ReadAt(got, 0); err != nil && err != io.EOF || n != len(payload) {
		t.Fatalf("readback = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("recovered file content differs from payload")
	}
}

func TestReconnectReplaysStripedRead(t *testing.T) {
	d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: fastRetry()})
	f, err := fs.Open("/readback", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	// Reset stream 0 abruptly mid-read (requests are small; a tiny
	// budget kills it on an early read request).
	d.conn(0).FaultAfter(100, netsim.FaultClose)

	got := make([]byte, len(payload))
	n, err := f.ReadAt(got, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("read across killed stream: %v", err)
	}
	if n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("recovered read = %d bytes, corrupted=%v", n, !bytes.Equal(got, payload))
	}
	if st := f.(*srbFile).FaultStats(); st.Reconnects < 1 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
}

func TestRetryDisabledFailsFast(t *testing.T) {
	d, fs := faultFS(t, SRBFSConfig{Streams: 2}) // zero-value policy
	f, err := fs.Open("/fragile", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.conn(1).FaultAfter(32<<10, netsim.FaultClose)

	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err == nil {
		t.Fatal("striped write across killed stream succeeded without retries")
	}
	if st := f.(*srbFile).FaultStats(); st.Reconnects != 0 {
		t.Fatalf("reconnect happened with retries disabled: %+v", st)
	}
}

func TestWriteAtErrorReportsContiguousPrefix(t *testing.T) {
	// Stripes land round-robin: with 2 streams and 64 KiB stripes, the
	// write [0, 1M) puts stripes 0,2,4,... on stream 0 and 1,3,5,... on
	// stream 1. Killing stream 0 before any payload moves means stripe 0
	// already failed — so the contiguous confirmed prefix is 0 even
	// though stream 1's stripes may have completed.
	d, fs := faultFS(t, SRBFSConfig{Streams: 2})
	f, err := fs.Open("/prefix", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.conn(0).FaultAfter(0, netsim.FaultClose)

	n, err := f.WriteAt(make([]byte, 1<<20), 0)
	if err == nil {
		t.Fatal("write with dead first stream succeeded")
	}
	if n != 0 {
		t.Fatalf("contiguous prefix = %d, want 0 (stripe 0 never confirmed)", n)
	}
}

func TestReconnectBudgetExhausted(t *testing.T) {
	pol := fastRetry()
	pol.MaxAttempts = 20 // plenty of attempts; the budget must stop it
	d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: pol, ReconnectBudget: 2})
	f, err := fs.Open("/doomed", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Every connection — current and future — dies almost immediately, so
	// each reconnect buys one more failure until the budget runs out. The
	// dial-time hook is what makes this deterministic: a replacement
	// connection is faulted before the client can push a single byte, so
	// the write can never complete no matter how the scheduler interleaves
	// recovery with fault injection.
	kill := func(c *netsim.Conn) { c.FaultAfter(100, netsim.FaultClose) }
	d.faultFuture(kill)
	d.mu.Lock()
	for _, c := range d.conns {
		kill(c)
	}
	d.mu.Unlock()

	_, err = f.WriteAt(make([]byte, 1<<20), 0)
	if err == nil {
		t.Fatal("write against permanently failing streams succeeded")
	}
	st := f.(*srbFile).FaultStats()
	if st.Reconnects == 0 {
		t.Fatalf("budget never consumed: %+v", st)
	}
	if st.Reconnects > 2 {
		t.Fatalf("budget overrun: %d reconnects with budget 2", st.Reconnects)
	}
}

func TestReconnectSurvivesTransientDialFailure(t *testing.T) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	d := newTrackingDialer(srv)
	var gate sync.Mutex
	failing := 0
	dial := func() (net.Conn, error) {
		gate.Lock()
		if failing > 0 {
			failing--
			gate.Unlock()
			return nil, netsim.ErrDialFault
		}
		gate.Unlock()
		return d.dial()
	}
	fs, err := NewSRBFS(SRBFSConfig{
		Dial: dial, Streams: 2, StripeSize: 64 << 10, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/flaky-redial", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Kill a stream AND make the next redial attempt fail transiently:
	// recovery must push through both fault layers.
	gate.Lock()
	failing = 1
	gate.Unlock()
	d.conn(1).FaultAfter(32<<10, netsim.FaultClose)

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(13)).Read(payload)
	n, err := f.WriteAt(payload, 0)
	if err != nil || n != len(payload) {
		t.Fatalf("write across kill + flaky redial = %d, %v", n, err)
	}
	if st := f.(*srbFile).FaultStats(); st.Reconnects < 2 {
		// One burned on the failed dial, one for the successful redial.
		t.Fatalf("expected >= 2 reconnect attempts, got %+v", st)
	}
}

// TestOpenDialsAtMostMaxAttempts: dial, handshake and open are one try of
// the retry loop, so a stream that cannot be opened costs MaxAttempts
// dials — not MaxAttempts dial retries inside each of MaxAttempts opens.
func TestOpenDialsAtMostMaxAttempts(t *testing.T) {
	dials := 0
	fs, err := NewSRBFS(SRBFSConfig{
		Dial:  func() (net.Conn, error) { dials++; return nil, netsim.ErrDialFault },
		Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/unreachable", adio.O_RDWR|adio.O_CREATE, nil); !errors.Is(err, netsim.ErrDialFault) {
		t.Fatalf("open against a dead dialer: %v", err)
	}
	if want := fastRetry().MaxAttempts; dials != want {
		t.Fatalf("open dialed %d times, want %d", dials, want)
	}
}

func TestTerminalErrorNotRetried(t *testing.T) {
	d, fs := faultFS(t, SRBFSConfig{Streams: 1, Retry: fastRetry()})
	f, err := fs.Open("/terminal", adio.O_RDONLY|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Writing a read-only handle is a server status error — terminal, no
	// reconnect may fire.
	if _, err := f.WriteAt([]byte("nope"), 0); err == nil {
		t.Fatal("write on read-only handle succeeded")
	}
	if st := f.(*srbFile).FaultStats(); st.Reconnects != 0 {
		t.Fatalf("terminal error triggered reconnect: %+v", st)
	}
	if d.count() != 1 {
		t.Fatalf("extra connections dialed: %d", d.count())
	}
}

func TestCloseDuringReconnectStopsRecovery(t *testing.T) {
	// An op that keeps failing must stop redialing once the handle is
	// closed, even mid-retry-loop. Close lands once the first attempt has
	// failed, inside the first backoff (80–120 ms), so the redial cannot
	// finish first even on a loaded host.
	pol := fastRetry()
	pol.BaseBackoff, pol.MaxBackoff = 100*time.Millisecond, 100*time.Millisecond
	d, fs := faultFS(t, SRBFSConfig{Streams: 1, Retry: pol})
	f, err := fs.Open("/closing", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := d.conn(0).FaultAfter(0, netsim.FaultClose)

	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(make([]byte, 256<<10), 0)
		done <- err
	}()
	<-fired
	f.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write on closed faulted handle succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write kept retrying after Close")
	}
}

func TestReconnectDoesNotTruncate(t *testing.T) {
	// A handle opened with O_TRUNC must NOT truncate again when a stream
	// reconnects — that would wipe acknowledged data.
	d, fs := faultFS(t, SRBFSConfig{Streams: 1, Retry: fastRetry()})
	f, err := fs.Open("/keep", adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first := bytes.Repeat([]byte{0xAB}, 128<<10)
	if _, err := f.WriteAt(first, 0); err != nil {
		t.Fatal(err)
	}
	// Kill the only stream; the next op reconnects.
	d.conn(0).FaultAfter(0, netsim.FaultClose)
	second := bytes.Repeat([]byte{0xCD}, 64<<10)
	if _, err := f.WriteAt(second, int64(len(first))); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
	got := make([]byte, len(first)+len(second))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(first)], first) {
		t.Fatal("reconnect truncated previously acknowledged data")
	}
	if !bytes.Equal(got[len(first):], second) {
		t.Fatal("post-reconnect write corrupted")
	}
}

// TestMetadataOpsRideTheRetryLoop: Size, Truncate and Sync are idempotent
// and go through the same retry loop as the data ops, so a stream reset
// between data ops is redialed instead of surfacing as a terminal transport
// error. Size and Truncate live on stream 0 and cost one reconnect; Sync
// visits every stream.
func TestMetadataOpsRideTheRetryLoop(t *testing.T) {
	const budget = 6
	payload := bytes.Repeat([]byte("meta"), 40<<10) // 160 KiB: both streams hold stripes
	cases := []struct {
		name       string
		op         func(f adio.File) error
		reconnects int64
	}{
		{"Size", func(f adio.File) error {
			n, err := f.Size()
			if err == nil && n != int64(len(payload)) {
				err = fmt.Errorf("size = %d, want %d", n, len(payload))
			}
			return err
		}, 1},
		{"Truncate", func(f adio.File) error { return f.Truncate(int64(len(payload))) }, 1},
		{"Sync", func(f adio.File) error { return f.Sync() }, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: fastRetry(), ReconnectBudget: budget})
			f, err := fs.Open("/meta", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.count(); i++ {
				d.conn(i).FaultAfter(0, netsim.FaultClose)
			}
			before := f.(*srbFile).FaultStats()
			if err := c.op(f); err != nil {
				t.Fatalf("%s after every stream was reset: %v", c.name, err)
			}
			st := f.(*srbFile).FaultStats()
			if got := st.Reconnects - before.Reconnects; got != c.reconnects {
				t.Fatalf("reconnects advanced by %d, want %d", got, c.reconnects)
			}
			if got := before.BudgetLeft - st.BudgetLeft; int64(got) != c.reconnects {
				t.Fatalf("budget charged %d, want %d", got, c.reconnects)
			}
			if st.RetriedOps-before.RetriedOps != c.reconnects {
				t.Fatalf("retried ops = %+v, want one per reconnect", st)
			}
		})
	}
}

func TestRedundantReadSurvivesKilledStream(t *testing.T) {
	d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: fastRetry()})
	f, err := fs.Open("/redundant", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte("resilient"), 4<<10)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	d.conn(1).FaultAfter(0, netsim.FaultClose)
	got := make([]byte, len(payload))
	n, err := f.(*srbFile).ReadAtRedundant(got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("redundant read = %d, corrupted=%v", n, !bytes.Equal(got, payload))
	}
}

func TestEngineFailedThenRecoveredReportsTrueCount(t *testing.T) {
	// The whole chain: a request submitted through the async engine whose
	// first attempt dies mid-transfer must complete with the full byte
	// count after reconnect+replay.
	d, fs := faultFS(t, SRBFSConfig{Streams: 2, Retry: fastRetry()})
	f, err := fs.Open("/async-armored", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.conn(0).FaultAfter(16<<10, netsim.FaultClose)

	eng := NewEngine(1)
	defer eng.Close()
	payload := make([]byte, 768<<10)
	rand.New(rand.NewSource(17)).Read(payload)
	req := eng.Submit(func() (int, error) { return f.WriteAt(payload, 0) })
	n, err := req.Wait()
	if err != nil {
		t.Fatalf("async write across fault: %v", err)
	}
	if n != len(payload) {
		t.Fatalf("async request reported %d bytes, want %d", n, len(payload))
	}
}

func TestRetryableErrorKinds(t *testing.T) {
	if srb.Retryable(errors.New("anything unknown")) != true {
		t.Fatal("unknown errors must default to retryable")
	}
	if srb.Retryable(netsim.ErrReset) != true {
		t.Fatal("connection reset must be retryable")
	}
}

func TestServerBusyRetriesWithoutReconnect(t *testing.T) {
	// A server with one dispatch slot and slow storage: while a hog
	// occupies the slot, everyone else is shed with ErrServerBusy.
	srv := srb.NewMemServer(storage.DeviceSpec{OpLatency: 300 * time.Millisecond})
	srv.SetLimits(srb.Limits{MaxInflight: 1})
	d := newTrackingDialer(srv)
	cfg := SRBFSConfig{
		Dial: d.dial,
		Retry: srb.RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			Multiplier:  2,
			OpTimeout:   5 * time.Second,
		},
	}
	fs, err := NewSRBFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/shed", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The hog: a raw client whose slow write holds the only slot.
	hogRaw, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	hc, err := srb.NewConn(hogRaw, "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	hf, err := hc.Open("/hog", srb.O_RDWR|srb.O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	hogDone := make(chan error, 1)
	go func() {
		_, werr := hf.WriteAt(make([]byte, 1024), 0)
		hogDone <- werr
	}()
	// Wait until the hog's write request has reached the server (request
	// 5: two per handshake+open for each client), then give dispatch a
	// beat to occupy the slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Requests < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("hog write never arrived; stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)

	// The driver's write is shed, backs off, and replays on the SAME
	// connection: busy is a status error, so recovery must not redial or
	// spend reconnect budget.
	if _, err := f.WriteAt([]byte("patience"), 0); err != nil {
		t.Fatalf("write through busy window: %v", err)
	}
	if err := <-hogDone; err != nil {
		t.Fatalf("hog write: %v", err)
	}

	st := f.(*srbFile).FaultStats()
	if st.Reconnects != 0 {
		t.Fatalf("busy retry redialed: %+v", st)
	}
	if st.RetriedOps < 1 {
		t.Fatalf("no retried op recorded: %+v", st)
	}
	if sv := srv.Stats(); sv.Shed < 1 {
		t.Fatalf("server Shed = %d, want >= 1", sv.Shed)
	}
	// Only the driver's one stream and the hog ever dialed.
	if d.count() != 2 {
		t.Fatalf("dial count = %d, want 2", d.count())
	}
}

// dropReplyConn loses one reply on demand: once drop is armed, the next
// bytes the server sends are read off the wire, then the connection is cut
// and the read fails, as when a link dies after the server acted on a
// request but before its reply reached the client.
type dropReplyConn struct {
	net.Conn
	drop *atomic.Bool
}

func (c *dropReplyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.drop.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

// TestAppendHandleLostReplyAppliedOnce: a write on an O_APPEND handle whose
// reply is lost is replayed on a fresh stream, and the replay lands on the
// same bytes. Drivers ignore O_APPEND, so neither the original nor the
// replay can be moved to a grown end of file.
func TestAppendHandleLostReplyAppliedOnce(t *testing.T) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	var drop atomic.Bool
	fs, err := NewSRBFS(SRBFSConfig{
		Dial: func() (net.Conn, error) {
			c, s := netsim.Pipe(0, nil, nil)
			go srv.ServeConn(s)
			return &dropReplyConn{Conn: c, drop: &drop}, nil
		},
		Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/log", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f, err = fs.Open("/log", adio.O_RDWR|adio.O_APPEND, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	drop.Store(true)
	if n, err := f.WriteAt([]byte("abcde"), 10); n != 5 || err != nil {
		t.Fatalf("WriteAt with a lost reply = %d, %v; want 5, nil", n, err)
	}
	if st := f.(*srbFile).FaultStats(); st.RetriedOps != 1 {
		t.Fatalf("the lost reply was not replayed: %+v", st)
	}
	got := make([]byte, 32)
	n, err := f.ReadAt(got, 0)
	if err != io.EOF || string(got[:n]) != "0123456789abcde" {
		t.Fatalf("content = %q, %v; want %q", got[:n], err, "0123456789abcde")
	}
}
