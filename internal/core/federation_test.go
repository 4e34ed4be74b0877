package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/mcat"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// fedCluster is an in-process federation fixture: N independent SRB
// servers, each reachable through a dialer that can be cut (down flag),
// and a placer that knows them as s0..s{N-1}.
type fedCluster struct {
	names   []string
	servers map[string]*srb.Server
	down    map[string]*atomic.Bool
	placer  *mcat.Placer
}

func newFedCluster(n, replicas int) *fedCluster {
	fc := &fedCluster{
		servers: make(map[string]*srb.Server),
		down:    make(map[string]*atomic.Bool),
		placer:  mcat.NewPlacer(replicas),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		fc.names = append(fc.names, name)
		fc.servers[name] = srb.NewMemServer(storage.DeviceSpec{})
		fc.down[name] = &atomic.Bool{}
		fc.placer.AddServer(name)
	}
	return fc
}

func (fc *fedCluster) endpoints() []Endpoint {
	eps := make([]Endpoint, 0, len(fc.names))
	for _, name := range fc.names {
		srv, down := fc.servers[name], fc.down[name]
		eps = append(eps, Endpoint{Name: name, Dial: func() (net.Conn, error) {
			if down.Load() {
				return nil, fmt.Errorf("fedtest: %s unreachable", name)
			}
			c, s := netsim.Pipe(0, nil, nil)
			go srv.ServeConn(s)
			return c, nil
		}})
	}
	return eps
}

func (fc *fedCluster) fs(t *testing.T, cfg FedConfig) *FedFS {
	t.Helper()
	cfg.Endpoints = fc.endpoints()
	cfg.Placer = fc.placer
	fs, err := NewFedFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// mkdirAll creates the collection on every server: slot files of a path
// land under the same parent on each shard that holds a replica.
func (fc *fedCluster) mkdirAll(t *testing.T, dir string) {
	t.Helper()
	for _, name := range fc.names {
		if err := fc.servers[name].Catalog().MkdirAll(dir); err != nil {
			t.Fatalf("mkdir %s on %s: %v", dir, name, err)
		}
	}
}

func TestFedWriteReadRoundTrip(t *testing.T) {
	fc := newFedCluster(3, 2)
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: 1 << 10, Streams: 2})

	content := make([]byte, 10<<10+123) // not a stripe multiple
	rand.New(rand.NewSource(8)).Read(content)

	f, err := fs.Open("/fed/data", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt(content, 0); err != nil || n != len(content) {
		t.Fatalf("write = %d, %v", n, err)
	}
	// A width-3 write spreads over the whole fleet: no shard sits idle.
	for _, name := range fc.names {
		if w := fc.servers[name].Stats().BytesWritten; w == 0 {
			t.Fatalf("shard %s wrote no bytes", name)
		}
	}
	if sz, err := f.Size(); err != nil || sz != int64(len(content)) {
		t.Fatalf("size = %d, %v (want %d)", sz, err, len(content))
	}
	got := make([]byte, len(content))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(content) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("round trip corrupted content")
	}
	// An unaligned interior read crossing several slots.
	mid := make([]byte, 3000)
	if n, err := f.ReadAt(mid, 777); err != nil || n != len(mid) {
		t.Fatalf("interior read = %d, %v", n, err)
	}
	if !bytes.Equal(mid, content[777:777+3000]) {
		t.Fatal("interior read corrupted")
	}
	// Reading past the end yields the contiguous prefix and io.EOF.
	over := make([]byte, 4096)
	n, err := f.ReadAt(over, int64(len(content))-100)
	if n != 100 || !errors.Is(err, io.EOF) {
		t.Fatalf("tail read = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Every slot file is dense: replica sets hold bit-identical copies,
	// so the placement's servers agree byte-for-byte per slot.
	slots, ok := fc.placer.Lookup("/fed/data")
	if !ok || len(slots) != 3 {
		t.Fatalf("placement = %v, %v", slots, ok)
	}
	for slot, servers := range slots {
		if len(servers) != 2 {
			t.Fatalf("slot %d replica set %v", slot, servers)
		}
		wantLocal := layout{stripe: 1 << 10, width: 3}.slotSpan(int64(len(content)), slot)
		for _, server := range servers {
			e, err := fc.servers[server].Catalog().Lookup(SlotPath("/fed/data", slot))
			if err != nil {
				t.Fatalf("slot %d missing on %s: %v", slot, server, err)
			}
			if e.Size != wantLocal {
				t.Fatalf("slot %d on %s: size %d, want %d", slot, server, e.Size, wantLocal)
			}
		}
	}

	if err := fs.Delete("/fed/data"); err != nil {
		t.Fatal(err)
	}
	for slot, servers := range slots {
		for _, server := range servers {
			if _, err := fc.servers[server].Catalog().Lookup(SlotPath("/fed/data", slot)); err == nil {
				t.Fatalf("slot %d survived delete on %s", slot, server)
			}
		}
	}
}

// TestFedReadFailoverCountsFullPrefix is the regression for the
// stripe-error aggregation audit: a stripe whose primary is unreachable
// but whose replica serves it must count FULLY toward the contiguous
// prefix — a naive aggregator that charged the primary's failure against
// the prefix would truncate a read that actually succeeded end to end.
func TestFedReadFailoverCountsFullPrefix(t *testing.T) {
	const stripe = 1 << 10
	fc := newFedCluster(3, 2)
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: stripe})

	content := make([]byte, 3*stripe)
	rand.New(rand.NewSource(9)).Read(content)
	f, err := fs.Open("/fed/ha", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the middle slot's primary. Its replica — another live server —
	// must serve that stripe transparently.
	slots, _ := fc.placer.Lookup("/fed/ha")
	fc.down[slots[1].Primary()].Store(true)

	r, err := fs.Open("/fed/ha", adio.O_RDONLY, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, len(content))
	n, err := r.ReadAt(got, 0)
	if err != nil || n != len(content) {
		t.Fatalf("failover read = %d, %v; want full %d", n, err, len(content))
	}
	if !bytes.Equal(got, content) {
		t.Fatal("failover read corrupted content")
	}
}

// TestFedReadPrefixStopsAtFailedStripe pins the other half of the
// contract: when a stripe has NO surviving copy, the reported count is
// the contiguous prefix before it — later stripes that succeeded out of
// order are excluded, exactly as on the single-server path.
func TestFedReadPrefixStopsAtFailedStripe(t *testing.T) {
	const stripe = 1 << 10
	fc := newFedCluster(3, 1) // no replicas: a dead server is a dead slot
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: stripe})

	content := make([]byte, 3*stripe)
	rand.New(rand.NewSource(10)).Read(content)
	f, err := fs.Open("/fed/fragile", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	slots, _ := fc.placer.Lookup("/fed/fragile")
	fc.down[slots[1].Primary()].Store(true)

	r, err := fs.Open("/fed/fragile", adio.O_RDONLY, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, len(content))
	n, err := r.ReadAt(got, 0)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read with a dead slot succeeded (n=%d, err=%v)", n, err)
	}
	if n != stripe {
		t.Fatalf("prefix = %d, want %d (slot 0 only; slot 2's success must not count)", n, stripe)
	}
	if !bytes.Equal(got[:stripe], content[:stripe]) {
		t.Fatal("surviving prefix corrupted")
	}
}

// TestFedWritePrefixStopsAtFailedStripe: sync replication requires every
// replica; a write whose stripe cannot reach a replica reports the
// contiguous prefix confirmed everywhere before it.
func TestFedWritePrefixStopsAtFailedStripe(t *testing.T) {
	const stripe = 1 << 10
	fc := newFedCluster(3, 2)
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: stripe})

	// Decide placement while healthy, then cut one server before writing.
	slots, err := fc.placer.Place("/fed/degraded", 3)
	if err != nil {
		t.Fatal(err)
	}
	dead := slots[1].Primary()
	firstHit := -1
	for slot, servers := range slots {
		for _, s := range servers {
			if s == dead {
				firstHit = slot
				break
			}
		}
		if firstHit >= 0 {
			break
		}
	}
	fc.down[dead].Store(true)

	f, err := fs.Open("/fed/degraded", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	content := make([]byte, 3*stripe)
	n, err := f.WriteAt(content, 0)
	if err == nil {
		t.Fatalf("sync write with a dead replica succeeded (n=%d)", n)
	}
	if want := firstHit * stripe; n != want {
		t.Fatalf("confirmed prefix = %d, want %d (first stripe touching %s)", n, want, dead)
	}
}

func TestFedTruncateAndReopen(t *testing.T) {
	const stripe = 512
	fc := newFedCluster(2, 1)
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: stripe})

	content := make([]byte, 4*stripe)
	rand.New(rand.NewSource(11)).Read(content)
	f, err := fs.Open("/fed/t", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1000); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 1000 {
		t.Fatalf("size after truncate = %d, %v", sz, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// O_TRUNC empties every slot file eagerly at open.
	f2, err := fs.Open("/fed/t", adio.O_RDWR|adio.O_TRUNC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sz, err := f2.Size(); err != nil || sz != 0 {
		t.Fatalf("size after O_TRUNC = %d, %v", sz, err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFedOpenAndReopenFollowPlacement: a federated file exists exactly
// when it has a placement. Opening a path with none fails not-found and
// places nothing; with one, a slot file never written reads as an empty
// slot, whether no slot was written (create, close, reopen) or only some
// were.
func TestFedOpenAndReopenFollowPlacement(t *testing.T) {
	const stripe = 512
	fc := newFedCluster(2, 1)
	fc.mkdirAll(t, "/fed")
	fs := fc.fs(t, FedConfig{StripeSize: stripe})
	// create opens path with O_CREATE, writes data at 0 unless it is
	// empty, and reopens it without O_CREATE.
	create := func(t *testing.T, path string, data []byte) adio.File {
		t.Helper()
		f, err := fs.Open(path, adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f, err = fs.Open(path, adio.O_RDWR, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	t.Run("missing", func(t *testing.T) {
		if f, err := fs.Open("/fed/missing", adio.O_RDWR, nil); !errors.Is(err, srb.ErrNotFound) {
			if f != nil {
				f.Close()
			}
			t.Fatalf("open without O_CREATE of a missing file = %v, want ErrNotFound", err)
		}
		if _, ok := fc.placer.Lookup("/fed/missing"); ok {
			t.Fatal("failed open left a placement behind")
		}
	})
	t.Run("never written", func(t *testing.T) {
		f := create(t, "/fed/empty", nil)
		if sz, err := f.Size(); err != nil || sz != 0 {
			t.Fatalf("Size = %d, %v; want 0", sz, err)
		}
	})
	t.Run("one slot written", func(t *testing.T) {
		// Ten bytes land in slot 0 only; slot 1's file is never created.
		f := create(t, "/fed/short", []byte("0123456789"))
		if sz, err := f.Size(); err != nil || sz != 10 {
			t.Fatalf("Size = %d, %v; want 10", sz, err)
		}
		got := make([]byte, 2*stripe)
		if n, err := f.ReadAt(got, 0); n != 10 || err != io.EOF || string(got[:n]) != "0123456789" {
			t.Fatalf("ReadAt across the unwritten slot = %d %q, %v; want 10, io.EOF", n, got[:n], err)
		}
		if n, err := f.WriteAt([]byte("slot1"), stripe); n != 5 || err != nil {
			t.Fatalf("WriteAt into the unwritten slot = %d, %v", n, err)
		}
		if sz, err := f.Size(); err != nil || sz != stripe+5 {
			t.Fatalf("Size after the slot-1 write = %d, %v; want %d", sz, err, stripe+5)
		}
	})
}
