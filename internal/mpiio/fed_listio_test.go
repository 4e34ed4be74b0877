package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// TestListIOOverFederation: a sparse view over the federated driver takes
// the list-I/O branch — no sieve amplification — and agrees with memfs on
// bytes and on (n, err), through a view write whose pieces cross stripe
// boundaries, a read whose last extent straddles EOF, and a read with one
// slot's primary shard cut, under both replication modes.
func TestListIOOverFederation(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			placer := mcat.NewPlacer(2)
			down := map[string]*atomic.Bool{}
			var eps []core.Endpoint
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("s%d", i)
				srv, cut := srb.NewMemServer(storage.DeviceSpec{}), &atomic.Bool{}
				down[name] = cut
				placer.AddServer(name)
				eps = append(eps, core.Endpoint{Name: name, Dial: func() (net.Conn, error) {
					if cut.Load() {
						return nil, fmt.Errorf("fedtest: %s unreachable", name)
					}
					c, s := netsim.Pipe(0, nil, nil)
					go srv.ServeConn(s)
					return c, nil
				}})
			}
			fed, err := core.NewFedFS(core.FedConfig{
				Endpoints: eps, Placer: placer, Width: 3, StripeSize: 1 << 10, Async: async,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := memRegistry()
			reg.Register(fed)

			// density 100/700 < 0.25 → list I/O where the driver offers it.
			// Frame 19 sits at [13300, 13400) and crosses the stripe boundary
			// at 13312; the file ends 50 bytes into frame 22.
			view := View{BlockLen: 100, Stride: 700}
			const fileSize = 22*700 + 50
			paths := []string{"mem:/fv", "srbfed:/fv"}
			open := func(flags int) [2]*File {
				var fs [2]*File
				for i, p := range paths {
					f, err := OpenLocal(reg, p, flags, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.SetView(view); err != nil {
						t.Fatal(err)
					}
					fs[i] = f
				}
				return fs
			}
			// viewRead reads 24 frames' worth through both handles and
			// checks the federation against memfs.
			viewRead := func(what string, fs [2]*File) {
				t.Helper()
				var got [2][]byte
				var n [2]int
				var errs [2]error
				for i, f := range fs {
					got[i] = make([]byte, 2400)
					n[i], errs[i] = f.ReadAt(got[i], 0)
				}
				if n[1] != n[0] || errs[1] != errs[0] || !bytes.Equal(got[1], got[0]) {
					t.Fatalf("%s: federated = (%d, %v), memfs = (%d, %v), same bytes %v",
						what, n[1], errs[1], n[0], errs[0], bytes.Equal(got[1], got[0]))
				}
				if n[0] != 22*100+50 || errs[0] != io.EOF {
					t.Fatalf("%s: read = (%d, %v), want the EOF-straddling prefix", what, n[0], errs[0])
				}
			}

			for _, p := range paths {
				prepFile(t, reg, p, pattern(fileSize, 9))
			}
			fs := open(adio.O_RDWR)
			data := pattern(2000, 200)
			mn, merr := fs[0].WriteAt(data, 30)
			fn, ferr := fs[1].WriteAt(data, 30)
			if fn != mn || ferr != merr || fn != len(data) {
				t.Fatalf("view write: federated = (%d, %v), memfs = (%d, %v)", fn, ferr, mn, merr)
			}
			viewRead("healthy fleet", fs)
			st := fs[1].Stats()
			if st.PhysBytesWritten != st.BytesWritten || st.PhysBytesRead != st.BytesRead {
				t.Fatalf("federated view I/O was amplified (sieved, not list I/O): %+v", st)
			}
			for _, f := range fs {
				if err := f.Close(); err != nil { // drains the async replicas
					t.Fatal(err)
				}
			}
			if !bytes.Equal(physContents(t, reg, paths[1]), physContents(t, reg, paths[0])) {
				t.Fatal("federated view write left different physical bytes than memfs")
			}

			slots, _ := placer.Lookup("/fv")
			down[slots[1].Primary()].Store(true)
			fs = open(adio.O_RDONLY)
			viewRead("slot 1 primary cut", fs)
			for _, f := range fs {
				f.Close()
			}
		})
	}
}
