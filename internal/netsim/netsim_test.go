package netsim

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLimiterUnlimited(t *testing.T) {
	var nilLim *Limiter
	if d := nilLim.Reserve(1<<20, time.Now()); d != 0 {
		t.Fatalf("nil limiter reserved %v, want 0", d)
	}
	l := NewLimiter(0)
	if d := l.Reserve(1<<20, time.Now()); d != 0 {
		t.Fatalf("unlimited limiter reserved %v, want 0", d)
	}
}

func TestLimiterRate(t *testing.T) {
	l := NewLimiter(1 * MBps)
	now := time.Now()
	// 1 MiB at 1 MiB/s takes 1 s.
	d := l.Reserve(1<<20, now)
	if got, want := d.Seconds(), 1.0; math.Abs(got-want) > 0.01 {
		t.Fatalf("reserve of 1MiB at 1MiB/s = %v, want ~1s", d)
	}
	// A second reservation queues behind the first.
	d2 := l.Reserve(1<<19, now)
	if got, want := d2.Seconds(), 1.5; math.Abs(got-want) > 0.01 {
		t.Fatalf("second reserve = %v, want ~1.5s", d2)
	}
}

func TestLimiterIdleResets(t *testing.T) {
	l := NewLimiter(1 * MBps)
	now := time.Now()
	l.Reserve(1<<20, now)
	// After the virtual clock has passed, a new reservation starts fresh.
	later := now.Add(5 * time.Second)
	d := l.Reserve(1<<20, later)
	if got := d.Seconds(); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("reserve after idle = %v, want ~1s", d)
	}
}

func TestLimiterMonotonic(t *testing.T) {
	// Property: cumulative wait for k reservations of n bytes is
	// k*n/rate regardless of how the bytes are split.
	f := func(parts []uint16) bool {
		l := NewLimiter(64 * MBps)
		now := time.Now()
		total := 0
		var last time.Duration
		for _, p := range parts {
			n := int(p)%8192 + 1
			total += n
			last = l.Reserve(n, now)
		}
		want := float64(total) / (64 * MBps)
		return math.Abs(last.Seconds()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterConcurrentSafety(t *testing.T) {
	l := NewLimiter(1 * GBps)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Reserve(1024, time.Now())
			}
		}()
	}
	wg.Wait()
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(0, nil, nil)
	defer a.Close()
	defer b.Close()
	msg := []byte("hello remote i/o")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestPipeLargeTransferIntegrity(t *testing.T) {
	a, b := Pipe(time.Millisecond, []Stage{NewLimiter(256 * MBps)}, nil)
	defer a.Close()
	defer b.Close()
	const n = 6 << 20 // larger than maxInflight to exercise flow control
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 31)
	}
	go func() {
		a.Write(src)
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("corrupted transfer: %d bytes vs %d", len(got), len(src))
	}
}

func TestPipeLatency(t *testing.T) {
	const lat = 30 * time.Millisecond
	a, b := Pipe(lat, nil, nil)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	go a.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < lat {
		t.Fatalf("delivery after %v, want >= %v", el, lat)
	}
}

func TestPipeBandwidth(t *testing.T) {
	rate := 8.0 * MBps
	a, b := Pipe(0, []Stage{NewLimiter(rate)}, nil)
	defer a.Close()
	defer b.Close()
	const n = 2 << 20 // 2 MiB at 8 MiB/s -> ~250 ms
	go func() {
		a.Write(make([]byte, n))
		a.Close()
	}()
	start := time.Now()
	if _, err := io.Copy(io.Discard, b); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start).Seconds()
	want := float64(n) / rate
	if el < want*0.8 || el > want*2.0 {
		t.Fatalf("transfer took %.3fs, want ~%.3fs", el, want)
	}
}

func TestPipeCloseUnblocksReader(t *testing.T) {
	a, b := Pipe(0, nil, nil)
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("read after peer close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

func TestPipeWriteAfterPeerClose(t *testing.T) {
	a, b := Pipe(0, nil, nil)
	b.Close()
	// The push may succeed for buffered data, but eventually errors.
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		_, err = a.Write(make([]byte, 1024))
	}
	if err == nil {
		t.Fatal("write into closed peer never failed")
	}
}

func TestSharedLimiterContention(t *testing.T) {
	// Two streams sharing one path limiter should together take about
	// twice as long as one stream alone.
	shared := NewLimiter(16 * MBps)
	const n = 1 << 20
	run := func(streams int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < streams; i++ {
			a, b := Pipe(0, []Stage{shared}, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, b)
			}()
			go func(a *Conn) {
				a.Write(make([]byte, n))
				a.Close()
			}(a)
		}
		wg.Wait()
		return time.Since(start)
	}
	one := run(1)
	two := run(2)
	if two < one*3/2 {
		t.Fatalf("shared path: 2 streams took %v vs 1 stream %v; expected ~2x", two, one)
	}
}

func TestProfileStreamRate(t *testing.T) {
	p := DAS2()
	// 64 KiB / 182 ms ~ 360 KB/s, far below the 12.5 MB/s link.
	got := p.StreamRate()
	want := float64(p.Window) / p.RTT().Seconds()
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("StreamRate = %v want %v", got, want)
	}
	if got > p.LinkRate {
		t.Fatal("window-limited rate should be below link rate on DAS-2")
	}
	lb := Loopback()
	if lb.StreamRate() != lb.LinkRate && lb.RTT() != 0 {
		t.Fatal("loopback should be link-limited")
	}
}

func TestProfileScaledPreservesRatios(t *testing.T) {
	p := DAS2()
	s := p.Scaled(10)
	if got, want := s.RTT(), p.RTT()/10; got != want {
		t.Fatalf("scaled RTT = %v want %v", got, want)
	}
	// StreamRate/PathUpRate ratio must be preserved.
	r0 := p.StreamRate() / p.PathUpRate
	r1 := s.StreamRate() / s.PathUpRate
	if math.Abs(r0-r1)/r0 > 1e-9 {
		t.Fatalf("scaling changed stream/path ratio: %v vs %v", r0, r1)
	}
	if q := p.Scaled(1); q != p {
		t.Fatal("Scaled(1) should be identity")
	}
}

func TestNetworkDialCounts(t *testing.T) {
	n := NewNetwork(Loopback(), 4)
	c, s := n.Dial(2)
	if n.Conns() != 1 {
		t.Fatalf("conns = %d want 1", n.Conns())
	}
	c.Close()
	s.Close()
	if n.Conns() != 0 {
		t.Fatalf("conns after close = %d want 0", n.Conns())
	}
	if n.Nodes() != 4 {
		t.Fatalf("nodes = %d", n.Nodes())
	}
}

func TestNetworkStreamWindowCap(t *testing.T) {
	// A single stream over a scaled DAS-2 path must run at ~window/RTT,
	// and two streams together at ~2x.
	prof := DAS2().Scaled(20)
	n := NewNetwork(prof, 1)
	const payload = 2 << 20

	oneStream := measureUp(t, n, 1, payload)
	twoStream := measureUp(t, n, 2, payload)
	if twoStream < oneStream*1.5 {
		t.Fatalf("2 streams = %.0f B/s vs 1 stream %.0f B/s; want ~2x", twoStream, oneStream)
	}
}

// measureUp pushes payload bytes from node 0 to the server over k parallel
// connections and returns aggregate bytes/sec.
func measureUp(t *testing.T, n *Network, k, payload int) float64 {
	t.Helper()
	// Establish connections before starting the clock so handshake
	// RTTs do not pollute the bandwidth measurement.
	conns := make([]*Conn, k)
	for i := range conns {
		c, s := n.Dial(0)
		conns[i] = c.(*Conn)
		defer s.Close()
		go io.Copy(io.Discard, s)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			c.Write(make([]byte, payload/k))
			c.Close()
		}(c)
	}
	wg.Wait()
	return float64(payload) / time.Since(start).Seconds()
}

func TestBusContention(t *testing.T) {
	// With a finite bus, concurrent interconnect traffic slows a WAN
	// transfer from the same node.
	prof := Loopback()
	prof.BusRate = 8 * MBps
	prof.ICRate = 1 * GBps
	n := NewNetwork(prof, 2)

	transfer := func(withMPI bool) time.Duration {
		c, s := n.Dial(0)
		defer s.Close()
		done := make(chan struct{})
		go func() {
			io.Copy(io.Discard, s)
			close(done)
		}()
		stop := make(chan struct{})
		if withMPI {
			go func() {
				fab := n.Interconnect()
				for {
					select {
					case <-stop:
						return
					default:
						fab.Transfer(0, 1, 256<<10)
					}
				}
			}()
		}
		start := time.Now()
		c.Write(make([]byte, 1<<20))
		c.Close()
		<-done
		close(stop)
		return time.Since(start)
	}

	alone := transfer(false)
	contended := transfer(true)
	if contended < alone*5/4 {
		t.Fatalf("bus contention had no effect: alone=%v contended=%v", alone, contended)
	}
}

func TestNullFabric(t *testing.T) {
	start := time.Now()
	NullFabric{}.Transfer(0, 1, 1<<30)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("NullFabric should be instantaneous")
	}
}

// campusStream is one 256 KiB-window TCP stream over a 400 µs RTT: 64 KiB
// serializes in 100 µs, well under the host timer's overshoot.
const campusStream = (256 << 10) / 400e-6

// TestPipeStampsBackToBack pins the link's timing contract: one Write's
// chunks are reserved back to back, so consecutive delivery stamps sit
// exactly one chunk's serialization time apart, and the call returns within
// one timer overshoot of the model instead of one per chunk. A loaded host
// can preempt the writer for longer than one overshoot; that is not link
// time, so the bound needs one undisturbed run of three.
func TestPipeStampsBackToBack(t *testing.T) {
	const n = maxInflight // every chunk stays queued for inspection
	p := make([]byte, n)
	model := time.Duration(float64(n) / campusStream * float64(time.Second))
	step := time.Duration(float64(chunkSize) / campusStream * float64(time.Second))
	var runs []time.Duration
	for len(runs) < 3 {
		// Copying the payload is the sender's CPU, not link time, and
		// under the race detector it alone outlasts the model: allow what
		// the same Write costs over an unshaped pipe.
		u, v := Pipe(0, nil, nil)
		start := time.Now()
		if _, err := u.Write(p); err != nil {
			t.Fatal(err)
		}
		cpu := time.Since(start)
		u.Close()
		v.Close()

		a, b := Pipe(0, []Stage{NewLimiter(campusStream)}, nil)
		start = time.Now()
		if _, err := a.Write(p); err != nil {
			t.Fatal(err)
		}
		el := time.Since(start)
		segs := b.recv.segs // b is never read: a's Write was the last touch
		a.Close()
		b.Close()
		if len(segs) != n/chunkSize {
			t.Fatalf("%d segments queued, want %d", len(segs), n/chunkSize)
		}
		for i := 1; i < len(segs); i++ {
			if d := segs[i].at.Sub(segs[i-1].at); d != step {
				t.Fatalf("chunk %d stamped %v after chunk %d, want exactly %v", i, d, i-1, step)
			}
		}
		if el < model {
			t.Fatalf("4 MiB Write took %v, faster than the model's %v", el, model)
		}
		if el <= model+cpu+5*time.Millisecond {
			return
		}
		runs = append(runs, el-cpu)
	}
	t.Fatalf("4 MiB Write took %v beyond its copying cost, want <= %v", runs, model+5*time.Millisecond)
}

// TestPipeOneWayAfterOvershoot pins causality under pacing credit: a Write
// issued right after a sleep that woke late may be reserved in the past,
// but its bytes are never stamped earlier than the Write began plus one
// way, so every ping-pong takes at least the round trip.
func TestPipeOneWayAfterOvershoot(t *testing.T) {
	const oneWay = 1500 * time.Microsecond
	a, b := Pipe(oneWay, []Stage{NewLimiter(campusStream)}, []Stage{NewLimiter(campusStream)})
	defer a.Close()
	defer b.Close()
	bulk := make([]byte, chunkSize) // one 100 µs sleep, which overshoots
	buf := make([]byte, chunkSize+1)
	overshot := 0
	for i := 0; i < 200; i++ {
		if _, err := a.Write(bulk); err != nil {
			t.Fatal(err)
		}
		if a.pace.late > 0 {
			overshot++
		}
		t0 := time.Now()
		if _, err := a.Write([]byte{'?'}); err != nil {
			t.Fatal(err)
		}
		b.recv.mu.Lock()
		stamp := b.recv.segs[len(b.recv.segs)-1].at
		b.recv.mu.Unlock()
		if early := t0.Add(oneWay).Sub(stamp); early > 0 {
			t.Fatalf("ping %d stamped %v before its Write began plus one way", i, early)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Write([]byte{'!'}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, buf[:1]); err != nil {
			t.Fatal(err)
		}
		if rtt := time.Since(t0); rtt < 2*oneWay {
			t.Fatalf("ping %d took %v, want >= %v", i, rtt, 2*oneWay)
		}
	}
	if overshot == 0 {
		t.Fatal("no ping followed a late wake-up; the test exercised no credit")
	}
}

// TestPipeDeliversOnStamp pins the receive side of the timing contract: a
// reader waiting for a segment wakes at its delivery stamp, not at the host
// timer's next tick. No ping-pong may beat the round trip; on Linux, where
// waits block on a kernel timer, the median must also stay within 200 µs of
// it (the Go timer alone wakes each side up to ~1 ms late).
func TestPipeDeliversOnStamp(t *testing.T) {
	const oneWay = 200 * time.Microsecond
	a, b := Pipe(oneWay, nil, nil)
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	rtts := make([]time.Duration, 200)
	buf := make([]byte, 1)
	for i := range rtts {
		t0 := time.Now()
		if _, err := a.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			t.Fatal(err)
		}
		rtts[i] = time.Since(t0)
		if rtts[i] < 2*oneWay {
			t.Fatalf("ping %d took %v, want >= %v", i, rtts[i], 2*oneWay)
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	med := rtts[len(rtts)/2]
	t.Logf("RTT median %v, max %v (model %v)", med, rtts[len(rtts)-1], 2*oneWay)
	if runtime.GOOS == "linux" && med > 3*oneWay {
		t.Fatalf("median RTT %v, want <= %v", med, 3*oneWay)
	}
}

// TestWaitNeverEarly holds both wait paths to the instant they were given:
// waitUntil (the kernel timer on Linux) and sleepUntil, its Go-timer
// fallback, called directly. Concurrent waiters each hold their own timer.
func TestWaitNeverEarly(t *testing.T) {
	for _, w := range []struct {
		name string
		wait func(time.Time)
	}{{"waitUntil", waitUntil}, {"sleepUntil", sleepUntil}} {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var wg sync.WaitGroup
			for i := 0; i < 64; i++ {
				ahead := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					at := time.Now().Add(ahead)
					w.wait(at)
					if early := at.Sub(time.Now()); early > 0 {
						t.Errorf("waited %v ahead, returned %v early", ahead, early)
					}
				}()
			}
			wg.Wait()
		})
	}
}
