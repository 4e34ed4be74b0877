package srb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"semplar/internal/netsim"
	"semplar/internal/storage"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		// Terminal: the server made a definitive statement.
		{ErrNotFound, false},
		{ErrExists, false},
		{ErrIsDir, false},
		{ErrNotDir, false},
		{ErrNotEmpty, false},
		{ErrPerm, false},
		{ErrInvalid, false},
		{ErrBadHandle, false},
		{ErrProtocol, false},
		{ErrIO, false},
		{fmt.Errorf("wrapped: %w", ErrNotFound), false},
		// Semantic results, not transport failures.
		{io.EOF, false},
		{io.ErrShortWrite, false},
		// Overload shedding: transient status errors. A rate-limited
		// tenant retries after the server's hint; busy servers likewise.
		{ErrServerBusy, true},
		{fmt.Errorf("wrapped: %w", ErrServerBusy), true},
		{ErrRateLimited, true},
		{fmt.Errorf("wrapped: %w", ErrRateLimited), true},
		{&RateLimitedError{RetryAfter: time.Second}, true},
		{fmt.Errorf("wrapped: %w", &RateLimitedError{RetryAfter: time.Second}), true},
		// Tenant-layer verdicts are terminal: retrying cannot mint
		// credentials or shrink stored bytes.
		{ErrAuthFailed, false},
		{fmt.Errorf("wrapped: %w", ErrAuthFailed), false},
		{ErrQuotaExceeded, false},
		{fmt.Errorf("wrapped: %w", ErrQuotaExceeded), false},
		// Transient: transport, timeout, closed conn, unknown net errors.
		{ErrTransport, true},
		{ErrTimeout, true},
		{ErrConnClosed, true},
		{fmt.Errorf("%w: broken pipe", ErrTransport), true},
		{netsim.ErrClosed, true},
		{netsim.ErrReset, true},
		{netsim.ErrDialFault, true},
		{errors.New("connection reset by peer"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	pol := RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Multiplier:  2,
	}
	// Without jitter the sequence is deterministic: 10, 20, 40, 80, 80.
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := pol.Backoff(i); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// With jitter every sample stays inside backoff * [1-j, 1+j].
	pol.Jitter = 0.5
	for i := 0; i < 100; i++ {
		got := pol.Backoff(1)
		if got < 10*time.Millisecond || got > 30*time.Millisecond {
			t.Fatalf("jittered Backoff(1) = %v outside [10ms, 30ms]", got)
		}
	}
}

func TestBackoffForHonorsRetryAfterFloor(t *testing.T) {
	pol := RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Multiplier:  2,
	}
	// No hint: identical to Backoff.
	if got := pol.BackoffFor(0, ErrServerBusy); got != 10*time.Millisecond {
		t.Fatalf("BackoffFor without hint = %v, want 10ms", got)
	}
	// A retry-after hint above the schedule becomes the floor.
	hinted := fmt.Errorf("op: %w", &RateLimitedError{RetryAfter: 250 * time.Millisecond})
	if got := pol.BackoffFor(0, hinted); got != 250*time.Millisecond {
		t.Fatalf("BackoffFor with 250ms hint = %v, want 250ms", got)
	}
	// A hint below the schedule defers to the (larger) backoff.
	small := &RateLimitedError{RetryAfter: time.Millisecond}
	if got := pol.BackoffFor(3, small); got != 80*time.Millisecond {
		t.Fatalf("BackoffFor(3) with 1ms hint = %v, want 80ms", got)
	}
	// Non-rate-limit errors never consult a hint.
	if got := pol.BackoffFor(1, ErrTransport); got != 20*time.Millisecond {
		t.Fatalf("BackoffFor transport = %v, want 20ms", got)
	}
}

func TestRetryPolicyEnabled(t *testing.T) {
	if (RetryPolicy{}).Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	if (RetryPolicy{MaxAttempts: 1}).Enabled() {
		t.Fatal("single-attempt policy reports enabled")
	}
	if !DefaultRetryPolicy().Enabled() {
		t.Fatal("default policy reports disabled")
	}
}

// scriptedConn runs a minimal in-process server over one end of a pipe:
// it answers the handshake and open itself and delegates every other
// request to fn. fn returning nil stops the server cold — a stalled
// (black-holed) backend.
func scriptedConn(c net.Conn, fn func(req *request) *response) {
	go func() {
		defer c.Close()
		br := bufio.NewReader(c)
		bw := bufio.NewWriter(c)
		for {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			var resp *response
			switch req.op {
			case opConnect:
				resp = &response{value: protoVer}
			case opOpen:
				resp = &response{value: 7}
			default:
				resp = fn(req)
			}
			if resp == nil {
				// Stall: swallow the request, never answer. Keep
				// reading so the client's flush is not blocked.
				continue
			}
			resp.seq = req.seq
			if err := writeResponse(bw, resp); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()
}

func TestOpTimeoutOnStalledServer(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, func(req *request) *response { return nil })
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetOpTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = conn.Ping()
	if err == nil {
		t.Fatal("ping against stalled server succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled op error = %v, want ErrTimeout", err)
	}
	if !Retryable(err) {
		t.Fatal("timeout not classified retryable")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The connection is dead; later calls fail fast with the sticky error.
	if _, err := conn.Ping(); err == nil {
		t.Fatal("call on timed-out connection succeeded")
	}
}

func TestTransportErrorsWrapped(t *testing.T) {
	_, conn := startPair(t)
	// Sever the transport out from under the client, then call.
	conn.c.Close()
	_, err := conn.Ping()
	if err == nil {
		t.Fatal("ping over severed transport succeeded")
	}
	if !errors.Is(err, ErrTransport) && !errors.Is(err, ErrConnClosed) {
		t.Fatalf("severed transport error = %v, want ErrTransport", err)
	}
	if !Retryable(err) {
		t.Fatalf("transport error %v not retryable", err)
	}
	// A transport EOF must NOT satisfy errors.Is(err, io.EOF): that
	// identity is reserved for the semantic end-of-file result.
	if errors.Is(err, io.EOF) {
		t.Fatalf("transport error %v aliases io.EOF", err)
	}
}

func TestWriteZeroByteAckSurfacesShortWrite(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	scriptedConn(sEnd, func(req *request) *response {
		if req.op == opWritev {
			return &response{value: 0} // "success", zero bytes written
		}
		return &response{}
	})
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/zero", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var n int
	var werr error
	go func() {
		n, werr = f.WriteAt([]byte("progressless"), 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteAt looped forever on zero-byte ack")
	}
	if werr == nil || !errors.Is(werr, io.ErrShortWrite) {
		t.Fatalf("WriteAt = %d, %v; want io.ErrShortWrite", n, werr)
	}
}

func TestDialRetrySurvivesTransientFailures(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	dial := func() (net.Conn, error) {
		cEnd, sEnd := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(sEnd)
		return cEnd, nil
	}
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}

	conn, err := DialRetry(netsim.FlakyDialer(dial, 2), "tester", pol)
	if err != nil {
		t.Fatalf("dial with 2 transient failures: %v", err)
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// More failures than attempts: the last transient error surfaces.
	_, err = DialRetry(netsim.FlakyDialer(dial, 10), "tester", pol)
	if err == nil {
		t.Fatal("dial with persistent failures succeeded")
	}
	if !errors.Is(err, netsim.ErrDialFault) {
		t.Fatalf("dial error = %v, want ErrDialFault", err)
	}
}

func TestConnCallVsCloseRace(t *testing.T) {
	// Hammer call/Close concurrently; under -race this guards the
	// connection's locking discipline. Errors are expected once Close
	// lands — they just must be clean, never a hang or a panic.
	for iter := 0; iter < 20; iter++ {
		srv := NewMemServer(storage.DeviceSpec{})
		conn := connectTo(t, srv)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, err := conn.Ping(); err != nil {
						if !errors.Is(err, ErrConnClosed) && !Retryable(err) {
							t.Errorf("ping error: %v", err)
						}
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn.Close()
		}()
		wg.Wait()
	}
}

// TestRetryScheduleOnRecordedSleeper drives the one retry loop with a
// recording sleeper instead of the wall clock and pins its schedule: how
// many attempts run, when it sleeps and for how long, when the recovery
// step runs, and which errors end it on the spot.
func TestRetryScheduleOnRecordedSleeper(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Multiplier: 2}
	hint := &RateLimitedError{RetryAfter: 700 * time.Millisecond}
	reset := fmt.Errorf("%w: reset", ErrTransport)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	cases := []struct {
		name       string
		pol        RetryPolicy
		errs       []error // what successive tries return; the last repeats
		recoverErr error   // what the recovery step returns
		noRecovery bool    // pass a nil recovery step
		attempts   int
		sleeps     []time.Duration
		recoveries int
		wantIs     error // nil = success
	}{
		{name: "first try succeeds", pol: pol, errs: []error{nil}, attempts: 1},
		{name: "transport failure recovers and replays", pol: pol, errs: []error{reset, nil},
			attempts: 2, sleeps: []time.Duration{ms(10)}, recoveries: 1},
		{name: "exhaustion: MaxAttempts tries, no sleep after the last", pol: pol, errs: []error{reset},
			attempts: 4, sleeps: []time.Duration{ms(10), ms(20), ms(40)}, recoveries: 3, wantIs: ErrTransport},
		{name: "rate-limit hint floors the sleep, smaller steps only", pol: pol, errs: []error{hint, hint, nil},
			attempts: 3, sleeps: []time.Duration{ms(700), ms(700)}},
		{name: "a backoff above the hint is not shortened",
			pol:  RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, MaxBackoff: 4 * time.Second, Multiplier: 2},
			errs: []error{hint, nil}, attempts: 2, sleeps: []time.Duration{time.Second}},
		{name: "busy and rate-limited replay without the recovery step", pol: pol,
			errs:     []error{ErrServerBusy, hint, reset, nil},
			attempts: 4, sleeps: []time.Duration{ms(10), ms(700), ms(40)}, recoveries: 1},
		{name: "terminal status returns on the first attempt", pol: pol, errs: []error{ErrNotFound},
			attempts: 1, wantIs: ErrNotFound},
		{name: "io.EOF is a result, not a failure", pol: pol, errs: []error{io.EOF},
			attempts: 1, wantIs: io.EOF},
		{name: "terminal recovery error ends the loop", pol: pol, errs: []error{reset},
			recoverErr: ErrIO, attempts: 1, sleeps: []time.Duration{ms(10)}, recoveries: 1, wantIs: ErrIO},
		{name: "transient recovery error leaves the next try to trip over it", pol: pol, errs: []error{reset, nil},
			recoverErr: netsim.ErrDialFault, attempts: 2, sleeps: []time.Duration{ms(10)}, recoveries: 1},
		{name: "no recovery step", pol: pol, errs: []error{reset, reset, nil}, noRecovery: true,
			attempts: 3, sleeps: []time.Duration{ms(10), ms(20)}},
		{name: "zero policy fails fast with the bare error", errs: []error{reset},
			attempts: 1, wantIs: ErrTransport},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sleeps []time.Duration
			tries, recoveries := 0, 0
			recovery := func() error {
				recoveries++
				return c.recoverErr
			}
			if c.noRecovery {
				recovery = nil
			}
			attempts, err := c.pol.do(
				func(d time.Duration) { sleeps = append(sleeps, d) },
				func() error {
					e := c.errs[min(tries, len(c.errs)-1)]
					tries++
					return e
				},
				recovery)
			if attempts != c.attempts || tries != c.attempts {
				t.Fatalf("attempts = %d (%d tries), want %d", attempts, tries, c.attempts)
			}
			if fmt.Sprint(sleeps) != fmt.Sprint(c.sleeps) {
				t.Fatalf("sleeps = %v, want %v", sleeps, c.sleeps)
			}
			if recoveries != c.recoveries {
				t.Fatalf("recovery ran %d times, want %d", recoveries, c.recoveries)
			}
			if !errors.Is(err, c.wantIs) || (c.wantIs == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, c.wantIs)
			}
			if !c.pol.Enabled() && err != reset {
				t.Fatalf("disabled policy decorated the error: %v", err)
			}
		})
	}
}
