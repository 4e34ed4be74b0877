package storage

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"semplar/internal/netsim"
)

func testStore(t *testing.T, s Store) {
	t.Helper()

	// Create / Exists / duplicate create.
	o, err := s.Create("obj1")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !s.Exists("obj1") {
		t.Fatal("obj1 should exist")
	}
	if _, err := s.Create("obj1"); err != ErrExists {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}

	// Write then read back at offsets.
	if _, err := o.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("world"), 10); err != nil {
		t.Fatal(err)
	}
	sz, err := o.Size()
	if err != nil || sz != 15 {
		t.Fatalf("size = %d, %v; want 15", sz, err)
	}
	buf := make([]byte, 5)
	if _, err := o.ReadAt(buf, 10); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("read %q", buf)
	}
	// The hole between the two writes reads as zeros.
	hole := make([]byte, 5)
	if _, err := o.ReadAt(hole, 5); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 5)) {
		t.Fatalf("hole = %v, want zeros", hole)
	}

	// Read past EOF.
	if n, err := o.ReadAt(buf, 100); err != io.EOF || n != 0 {
		t.Fatalf("read past EOF = %d, %v", n, err)
	}
	// Short read at the tail returns what exists plus EOF.
	tail := make([]byte, 10)
	n, err := o.ReadAt(tail, 12)
	if n != 3 || err != io.EOF {
		t.Fatalf("tail read = %d, %v; want 3, EOF", n, err)
	}

	// Truncate shrinks and re-extends with zeros.
	if err := o.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if sz, _ := o.Size(); sz != 3 {
		t.Fatalf("size after shrink = %d", sz)
	}
	if err := o.Truncate(8); err != nil {
		t.Fatal(err)
	}
	grown := make([]byte, 5)
	if _, err := o.ReadAt(grown, 3); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(grown, make([]byte, 5)) {
		t.Fatalf("extended region = %v, want zeros", grown)
	}
	if err := o.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// Open existing, remove, open missing.
	o2, err := s.Open("obj1")
	if err != nil {
		t.Fatal(err)
	}
	o2.Close()
	if err := s.Remove("obj1"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("obj1") {
		t.Fatal("obj1 should be gone")
	}
	if _, err := s.Open("obj1"); err != ErrNotFound {
		t.Fatalf("open removed = %v, want ErrNotFound", err)
	}
	if err := s.Remove("obj1"); err != ErrNotFound {
		t.Fatalf("remove removed = %v, want ErrNotFound", err)
	}

	// Keys.
	s.Create("a")
	s.Create("b")
	if got := len(s.Keys()); got != 2 {
		t.Fatalf("keys = %d, want 2", got)
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, fs)
}

func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o, err := fs.Create("persistent/key with spaces")
	if err != nil {
		t.Fatal(err)
	}
	o.WriteAt([]byte("data survives"), 0)
	o.Close()

	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := fs2.Open("persistent/key with spaces")
	if err != nil {
		t.Fatalf("object lost after reopen: %v", err)
	}
	buf := make([]byte, 13)
	if _, err := o2.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "data survives" {
		t.Fatalf("got %q", buf)
	}
}

func TestMemObjectConcurrentWriters(t *testing.T) {
	s := NewMemStore()
	o, _ := s.Create("shared")
	const writers = 8
	const per = 4096
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + w)}, per)
			if _, err := o.WriteAt(data, int64(w*per)); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	sz, _ := o.Size()
	if sz != writers*per {
		t.Fatalf("size = %d, want %d", sz, writers*per)
	}
	for w := 0; w < writers; w++ {
		buf := make([]byte, per)
		if _, err := o.ReadAt(buf, int64(w*per)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != byte('A'+w) {
				t.Fatalf("stripe %d corrupted", w)
			}
		}
	}
}

func TestMemObjectQuickWriteRead(t *testing.T) {
	f := func(chunks [][]byte) bool {
		s := NewMemStore()
		o, _ := s.Create("q")
		want := []byte{}
		off := int64(0)
		for _, c := range chunks {
			if len(c) > 1<<12 {
				c = c[:1<<12]
			}
			o.WriteAt(c, off)
			want = append(want, c...)
			off += int64(len(c))
		}
		sz, _ := o.Size()
		if sz != int64(len(want)) {
			return false
		}
		got := make([]byte, len(want))
		if len(got) > 0 {
			if _, err := o.ReadAt(got, 0); err != nil && err != io.EOF {
				return false
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceMetersWrites(t *testing.T) {
	spec := DeviceSpec{Name: "slowdisk", WriteRate: 4 * netsim.MBps}
	dev := WithDevice(NewMemStore(), spec)
	o, err := dev.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20 // 1 MiB at 4 MiB/s => ~250 ms
	start := time.Now()
	if _, err := o.WriteAt(make([]byte, n), 0); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if el < 200*time.Millisecond {
		t.Fatalf("metered write finished in %v, want >= ~250ms", el)
	}
	// Reads are not write-metered.
	start = time.Now()
	buf := make([]byte, n)
	if _, err := o.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("read took %v despite unlimited read rate", el)
	}
}

// TestDevicePacesSmallWrites pins the device's timing contract: a run of
// small sequential calls costs the model's time plus at most one host timer
// overshoot, not one overshoot per call. A loaded host can preempt the
// writer for longer than one overshoot; that is not the device model's
// time, so the bound needs one undisturbed run of three.
func TestDevicePacesSmallWrites(t *testing.T) {
	const calls, size = 64, 2 << 10
	rate := 600.0 * netsim.MBps
	model := time.Duration(float64(calls*size) / rate * float64(time.Second))
	limit := model + 5*time.Millisecond
	buf := make([]byte, size)
	var runs []time.Duration
	for len(runs) < 3 {
		o, err := WithDevice(NewMemStore(), DeviceSpec{WriteRate: rate}).Create("f")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := o.WriteAt(buf, int64(i*size)); err != nil {
				t.Fatal(err)
			}
		}
		el := time.Since(start)
		if el < model {
			t.Fatalf("%d writes of %d B took %v, faster than the model's %v", calls, size, el, model)
		}
		if el <= limit {
			return
		}
		runs = append(runs, el)
	}
	t.Fatalf("%d writes of %d B took %v, want <= %v", calls, size, runs, limit)
}

func TestDeviceScaled(t *testing.T) {
	spec := DeviceSpec{ReadRate: 10, WriteRate: 20, OpLatency: time.Second}
	s := spec.Scaled(10)
	if s.ReadRate != 100 || s.WriteRate != 200 || s.OpLatency != 100*time.Millisecond {
		t.Fatalf("scaled = %+v", s)
	}
	if spec.Scaled(1) != spec {
		t.Fatal("Scaled(1) must be identity")
	}
}

func TestDevicePassthrough(t *testing.T) {
	dev := WithDevice(NewMemStore(), DeviceSpec{})
	o, _ := dev.Create("x")
	o.WriteAt([]byte("abc"), 0)
	o.Close()
	if !dev.Exists("x") {
		t.Fatal("exists")
	}
	o2, err := dev.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := o2.Size(); sz != 3 {
		t.Fatalf("size %d", sz)
	}
	if err := o2.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if err := o2.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(dev.Keys()) != 1 {
		t.Fatal("keys")
	}
	if err := dev.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Open("x"); err != ErrNotFound {
		t.Fatal("open after remove")
	}
	if _, err := dev.Create("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Create("x"); err != ErrExists {
		t.Fatal("duplicate create through device")
	}
}

func TestMemStoreRandomizedTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewMemStore()
	o, _ := s.Create("r")
	ref := []byte{}
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0: // write
			off := rng.Intn(5000)
			n := rng.Intn(500)
			data := make([]byte, n)
			rng.Read(data)
			o.WriteAt(data, int64(off))
			if off+n > len(ref) {
				grown := make([]byte, off+n)
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:off+n], data)
		case 1: // truncate
			sz := rng.Intn(6000)
			o.Truncate(int64(sz))
			if sz <= len(ref) {
				ref = ref[:sz]
			} else {
				grown := make([]byte, sz)
				copy(grown, ref)
				ref = grown
			}
		case 2: // verify
			sz, _ := o.Size()
			if sz != int64(len(ref)) {
				t.Fatalf("iter %d: size %d want %d", i, sz, len(ref))
			}
			if len(ref) > 0 {
				got := make([]byte, len(ref))
				if _, err := o.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("iter %d: content mismatch", i)
				}
			}
		}
	}
}
