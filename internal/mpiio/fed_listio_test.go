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

// wireViews are the strided views the over-the-wire list-I/O tests run: a
// sparse one and two dense ones (density 0.71 and 0.5), all of which take
// list I/O on a VectorIO driver.
var wireViews = []View{
	{BlockLen: 100, Stride: 700},
	{BlockLen: 100, Stride: 140},
	{BlockLen: 2048, Stride: 4096},
}

// TestListIOOverFederation: strided views over the federated driver take
// the list-I/O branch — no sieve amplification, whatever the density — and
// agree with memfs on bytes and on (n, err), through a view write whose
// pieces cross stripe boundaries, a read whose last extent straddles EOF,
// and a read with one slot's primary shard cut, under both replication
// modes. A single SRBFS server must agree the same way.
func TestListIOOverFederation(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			for _, view := range wireViews {
				t.Run(fmt.Sprintf("%dof%d", view.BlockLen, view.Stride), func(t *testing.T) {
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
					checkViewOverWire(t, reg, "srbfed:/fv", view, func() {
						slots, _ := placer.Lookup("/fv")
						down[slots[1].Primary()].Store(true)
					})
				})
			}
		})
	}
	t.Run("single srbfs", func(t *testing.T) {
		for _, view := range wireViews {
			t.Run(fmt.Sprintf("%dof%d", view.BlockLen, view.Stride), func(t *testing.T) {
				reg := srbRegistry(srb.NewMemServer(storage.DeviceSpec{}))
				reg.Register(adio.NewMemFS())
				checkViewOverWire(t, reg, "srb:/fv", view, nil)
			})
		}
	})
}

// checkViewOverWire runs one view through path and through memfs side by
// side: a view write from logical offset 30 (mid-frame, pieces crossing the
// federation's 1 KiB stripes), then a 24-frame read of a file that ends
// halfway into frame 22. Both must agree on (n, err) and bytes, move no
// amplified bytes, and leave identical physical files. When cut is non-nil
// it is called after the write, and the read is repeated on fresh handles.
func checkViewOverWire(t *testing.T, reg *adio.Registry, path string, view View, cut func()) {
	t.Helper()
	b := int(view.BlockLen)
	fileSize := int(view.Disp+22*view.Stride) + b/2
	paths := []string{"mem:/fv", path}
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
	// viewRead reads 24 frames' worth through both handles and checks the
	// wire driver against memfs.
	viewRead := func(what string, fs [2]*File) {
		t.Helper()
		var got [2][]byte
		var n [2]int
		var errs [2]error
		for i, f := range fs {
			got[i] = make([]byte, 24*b)
			n[i], errs[i] = f.ReadAt(got[i], 0)
		}
		if n[1] != n[0] || errs[1] != errs[0] || !bytes.Equal(got[1], got[0]) {
			t.Fatalf("%s: %s = (%d, %v), memfs = (%d, %v), same bytes %v",
				what, path, n[1], errs[1], n[0], errs[0], bytes.Equal(got[1], got[0]))
		}
		if n[0] != 22*b+b/2 || errs[0] != io.EOF {
			t.Fatalf("%s: read = (%d, %v), want the EOF-straddling prefix", what, n[0], errs[0])
		}
	}

	for _, p := range paths {
		prepFile(t, reg, p, pattern(fileSize, 9))
	}
	fs := open(adio.O_RDWR)
	data := pattern(20*b, 200)
	mn, merr := fs[0].WriteAt(data, 30)
	wn, werr := fs[1].WriteAt(data, 30)
	if wn != mn || werr != merr || wn != len(data) {
		t.Fatalf("view write: %s = (%d, %v), memfs = (%d, %v)", path, wn, werr, mn, merr)
	}
	viewRead("healthy", fs)
	st := fs[1].Stats()
	if st.PhysBytesWritten != st.BytesWritten || st.PhysBytesRead != st.BytesRead {
		t.Fatalf("view I/O over %s was amplified (sieved, not list I/O): %+v", path, st)
	}
	for _, f := range fs {
		if err := f.Close(); err != nil { // drains any async replicas
			t.Fatal(err)
		}
	}
	if !bytes.Equal(physContents(t, reg, paths[1]), physContents(t, reg, paths[0])) {
		t.Fatalf("view write left different physical bytes on %s than on memfs", path)
	}
	if cut == nil {
		return
	}
	cut()
	fs = open(adio.O_RDONLY)
	viewRead("slot 1 primary cut", fs)
	for _, f := range fs {
		f.Close()
	}
}
