package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineBasicSubmitWait(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	req := e.Submit(func() (int, error) { return 42, nil })
	n, err := req.Wait()
	if n != 42 || err != nil {
		t.Fatalf("wait = %d, %v", n, err)
	}
	// Waiting again is allowed and returns the same result.
	n, err = req.Wait()
	if n != 42 || err != nil {
		t.Fatalf("second wait = %d, %v", n, err)
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	boom := errors.New("io failed")
	req := e.Submit(func() (int, error) { return 3, boom })
	n, err := req.Wait()
	if n != 3 || err != boom {
		t.Fatalf("wait = %d, %v", n, err)
	}
}

func TestEngineFIFOOrder(t *testing.T) {
	// A single I/O thread must service the queue in FIFO order.
	e := NewEngine(1)
	defer e.Close()
	var order []int
	var reqs []*Request
	for i := 0; i < 20; i++ {
		i := i
		reqs = append(reqs, e.Submit(func() (int, error) {
			order = append(order, i) // safe: single I/O thread
			return i, nil
		}))
	}
	for _, r := range reqs {
		r.Wait()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestEngineTest(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	release := make(chan struct{})
	req := e.Submit(func() (int, error) {
		<-release
		return 7, nil
	})
	if _, _, done := req.Test(); done {
		t.Fatal("Test reported done while blocked")
	}
	close(release)
	req.Wait()
	n, err, done := req.Test()
	if !done || n != 7 || err != nil {
		t.Fatalf("Test after completion = %d, %v, %v", n, err, done)
	}
}

func TestEngineLazySpawn(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	if got := e.Stats().Spawned; got != 0 {
		t.Fatalf("threads before first call = %d", got)
	}
	e.Submit(func() (int, error) { return 0, nil }).Wait()
	if got := e.Stats().Spawned; got != 1 {
		t.Fatalf("threads after first call = %d, want 1", got)
	}
	// Saturating the pool spawns more, up to the configured size.
	block := make(chan struct{})
	var reqs []*Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, e.Submit(func() (int, error) {
			<-block
			return 0, nil
		}))
	}
	time.Sleep(20 * time.Millisecond)
	if got := e.Stats().Spawned; got > 4 {
		t.Fatalf("spawned %d threads, configured 4", got)
	}
	close(block)
	for _, r := range reqs {
		r.Wait()
	}
}

func TestEngineOverlap(t *testing.T) {
	// The whole point: I/O in the background while the caller computes.
	e := NewEngine(1)
	defer e.Close()
	const ioTime = 80 * time.Millisecond
	start := time.Now()
	req := e.Submit(func() (int, error) {
		time.Sleep(ioTime) // remote I/O
		return 0, nil
	})
	time.Sleep(ioTime) // computation
	req.Wait()
	total := time.Since(start)
	if total > ioTime*3/2 {
		t.Fatalf("no overlap: total %v for two %v phases", total, ioTime)
	}
}

func TestEngineMultiThreadConcurrency(t *testing.T) {
	// With k threads, k tasks run concurrently.
	const k = 4
	e := NewEngine(k)
	defer e.Close()
	var inFlight, peak atomic.Int64
	var reqs []*Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, e.Submit(func() (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}))
	}
	for _, r := range reqs {
		r.Wait()
	}
	if p := peak.Load(); p < 2 || p > k {
		t.Fatalf("peak concurrency = %d, want in [2,%d]", p, k)
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	var done atomic.Int64
	for i := 0; i < 10; i++ {
		e.Submit(func() (int, error) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return 0, nil
		})
	}
	e.Drain()
	if done.Load() != 10 {
		t.Fatalf("drain returned with %d/10 done", done.Load())
	}
	st := e.Stats()
	if st.Submitted != 10 || st.Completed != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineClose(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	var done atomic.Int64
	for i := 0; i < 5; i++ {
		e.Submit(func() (int, error) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return 0, nil
		})
	}
	e.Close()
	if done.Load() != 5 {
		t.Fatalf("close returned with %d/5 done", done.Load())
	}
	// Submissions after close fail fast.
	req := e.Submit(func() (int, error) { return 1, nil })
	if _, err := req.Wait(); err != ErrEngineClosed {
		t.Fatalf("submit after close = %v", err)
	}
	// Close is idempotent.
	e.Close()
	// The I/O threads have exited, not just gone idle.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewEngine: an I/O thread did not exit",
				runtime.NumGoroutine(), before)
		}
	}
}

func TestEngineDoneChannel(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	req := e.Submit(func() (int, error) { return 9, nil })
	select {
	case <-req.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done channel never closed")
	}
	if n, _ := req.Wait(); n != 9 {
		t.Fatal("result lost")
	}
}

func TestNewEngineClampsThreads(t *testing.T) {
	if NewEngine(0).Threads() != 1 || NewEngine(-3).Threads() != 1 {
		t.Fatal("thread clamp")
	}
	if NewEngine(7).Threads() != 7 {
		t.Fatal("thread count")
	}
}

func TestEngineSubmitCloseRace(t *testing.T) {
	// Submit and Close racing from many goroutines: every request must
	// still complete (with a result or ErrEngineClosed), no hang, no
	// race-detector report.
	for iter := 0; iter < 25; iter++ {
		e := NewEngine(4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					req := e.Submit(func() (int, error) { return 1, nil })
					if n, err := req.Wait(); err == nil && n != 1 {
						t.Errorf("bad result %d", n)
					} else if err != nil && !errors.Is(err, ErrEngineClosed) {
						t.Errorf("unexpected error: %v", err)
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
		e.Close()
	}
}

func TestEnginePanickingOpFailsRequest(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	req := e.Submit(func() (int, error) { panic("disk on fire") })
	n, err := req.Wait()
	if err == nil || n != 0 {
		t.Fatalf("panicking op = %d, %v; want error", n, err)
	}
	// The pool survives: later submissions still run.
	req2 := e.Submit(func() (int, error) { return 7, nil })
	if n, err := req2.Wait(); n != 7 || err != nil {
		t.Fatalf("post-panic submit = %d, %v", n, err)
	}
}
