package core

import (
	"errors"
	"sync"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// TestCloseDuringOps closes a handle while reads, writes, vectored I/O and
// Size calls run against it. Every op must either complete or return
// errHandleClosed — also one whose call was on the wire when Close cut its
// connection — and none may panic or race. Once Close has returned, every
// op reports errHandleClosed.
func TestCloseDuringOps(t *testing.T) {
	srbfs := func(streams int) func(*testing.T) adio.File {
		return func(t *testing.T) adio.File {
			fs, err := NewSRBFS(SRBFSConfig{
				Dial:       memDialer(srb.NewMemServer(storage.DeviceSpec{})),
				Streams:    streams,
				StripeSize: 1 << 10,
				Retry:      fastRetry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("/closing", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	fedfs := func(async bool) func(*testing.T) adio.File {
		return func(t *testing.T) adio.File {
			fc := newFedCluster(2, 2)
			fs := fc.fs(t, FedConfig{StripeSize: 1 << 10, Async: async, Retry: fastRetry()})
			f, err := fs.Open("/closing", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	cases := []struct {
		name string
		open func(*testing.T) adio.File
	}{
		{"srbfs-1-stream", srbfs(1)},
		{"srbfs-2-streams", srbfs(2)},
		{"fedfs-sync", fedfs(false)},
		{"fedfs-async", fedfs(true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.open(t)
			if _, err := f.WriteAt(make([]byte, 8<<10), 0); err != nil {
				t.Fatal(err)
			}
			vecs := func() []adio.Vec {
				return []adio.Vec{{Off: 0, Buf: make([]byte, 512)}, {Off: 3000, Buf: make([]byte, 2048)}}
			}
			ops := map[string]func() error{
				"ReadAt":     func() error { _, err := f.ReadAt(make([]byte, 4096), 1000); return err },
				"WriteAt":    func() error { _, err := f.WriteAt(make([]byte, 4096), 1000); return err },
				"ReadAtVec":  func() error { _, err := f.ReadAtVec(vecs()); return err },
				"WriteAtVec": func() error { _, err := f.WriteAtVec(vecs()); return err },
				"Size":       func() error { _, err := f.Size(); return err },
			}

			// Two goroutines per op loop until their op fails; Close runs
			// once every goroutine has finished one op.
			var running, done sync.WaitGroup
			for name, op := range ops {
				for range 2 {
					running.Add(1)
					done.Add(1)
					go func() {
						defer done.Done()
						for i := 0; ; i++ {
							err := op()
							if i == 0 {
								running.Done()
							}
							if err != nil {
								if !errors.Is(err, errHandleClosed) {
									t.Errorf("%s racing Close: %v", name, err)
								}
								return
							}
						}
					}()
				}
			}
			running.Wait()
			if err := f.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			done.Wait()

			for name, op := range ops {
				if err := op(); !errors.Is(err, errHandleClosed) {
					t.Errorf("%s after Close = %v, want errHandleClosed", name, err)
				}
			}
		})
	}
}
