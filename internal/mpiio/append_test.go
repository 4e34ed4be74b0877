package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// fedRegistry registers a FedFS over two fresh in-memory servers, each slot
// on one server.
func fedRegistry(t *testing.T, stripe int) *adio.Registry {
	t.Helper()
	placer := mcat.NewPlacer(1)
	var eps []core.Endpoint
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		srv := srb.NewMemServer(storage.DeviceSpec{})
		placer.AddServer(name)
		eps = append(eps, core.Endpoint{Name: name, Dial: func() (net.Conn, error) {
			c, s := netsim.Pipe(0, nil, nil)
			go srv.ServeConn(s)
			return c, nil
		}})
	}
	fed, err := core.NewFedFS(core.FedConfig{Endpoints: eps, Placer: placer, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	reg := &adio.Registry{}
	reg.Register(fed)
	return reg
}

// TestAppendAcrossDrivers: O_APPEND is MPI_MODE_APPEND on every driver. On
// an existing 10-byte file, the individual file pointer starts at the old
// size, Write lands there, WriteAt lands at its own offset (the 1000 bytes
// at 0 cross several 256-byte stripes, so multi-stream and federated
// handles split it), and every driver ends with the same bytes.
func TestAppendAcrossDrivers(t *testing.T) {
	const stripe = 256
	old := []byte("0123456789")
	at := bytes.Repeat([]byte("writeat-"), 125) // 1000 bytes for offset 0
	tail := bytes.Repeat([]byte("W"), 300)      // pointer write at the old EOF
	want := append([]byte(nil), at...)
	copy(want[len(old):], tail)

	drivers := []struct {
		name  string
		reg   func(t *testing.T) *adio.Registry
		path  func(t *testing.T) string
		hints adio.Hints
	}{
		{"memfs", func(*testing.T) *adio.Registry { return memRegistry() },
			func(*testing.T) string { return "mem:/a" }, nil},
		{"ufs", func(*testing.T) *adio.Registry {
			reg := &adio.Registry{}
			reg.Register(adio.UFSDriver{})
			return reg
		}, func(t *testing.T) string { return "ufs:" + filepath.Join(t.TempDir(), "a") }, nil},
		{"srbfs 1 stream", func(*testing.T) *adio.Registry { return srbRegistry(srb.NewMemServer(storage.DeviceSpec{})) },
			func(*testing.T) string { return "srb:/a" }, adio.Hints{"streams": "1", "stripe_size": fmt.Sprint(stripe)}},
		{"srbfs 2 streams", func(*testing.T) *adio.Registry { return srbRegistry(srb.NewMemServer(storage.DeviceSpec{})) },
			func(*testing.T) string { return "srb:/a" }, adio.Hints{"streams": "2", "stripe_size": fmt.Sprint(stripe)}},
		{"fedfs", func(t *testing.T) *adio.Registry { return fedRegistry(t, stripe) },
			func(*testing.T) string { return "srbfed:/a" }, nil},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			reg, path := d.reg(t), d.path(t)
			f, err := OpenLocal(reg, path, adio.O_RDWR|adio.O_CREATE, d.hints)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(old, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			f, err = OpenLocal(reg, path, adio.O_RDWR|adio.O_APPEND, d.hints)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if pos, err := f.Seek(0, 1); pos != int64(len(old)) || err != nil {
				t.Errorf("file pointer after open = %d, %v; want %d", pos, err, len(old))
			}
			if n, err := f.WriteAt(at, 0); n != len(at) || err != nil {
				t.Errorf("WriteAt = %d, %v", n, err)
			}
			if n, err := f.Write(tail); n != len(tail) || err != nil {
				t.Errorf("Write = %d, %v", n, err)
			}
			if pos := f.Tell(); pos != int64(len(old)+len(tail)) {
				t.Errorf("file pointer after Write = %d, want %d", pos, len(old)+len(tail))
			}
			got := make([]byte, 2*len(want))
			n, err := f.ReadAt(got, 0)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:n], want) {
				t.Errorf("file holds %d bytes %.40q..., want %d bytes %.40q...", n, got[:n], len(want), want)
			}
		})
	}
}
