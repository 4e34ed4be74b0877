package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/mpi"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

func TestViewValidate(t *testing.T) {
	cases := []struct {
		v  View
		ok bool
	}{
		{View{}, true},
		{View{Disp: 100}, true},
		{View{BlockLen: 10, Stride: 40}, true},
		{View{BlockLen: 10, Stride: 10}, true},
		{View{Disp: -1}, false},
		{View{BlockLen: 10, Stride: 5}, false},
		{View{BlockLen: -2, Stride: 5}, false},
	}
	for i, c := range cases {
		if err := c.v.validate(); (err == nil) != c.ok {
			t.Errorf("case %d: validate(%+v) = %v", i, c.v, err)
		}
	}
}

func TestViewPhysicalMapping(t *testing.T) {
	v := View{Disp: 100, BlockLen: 10, Stride: 40}
	cases := map[int64]int64{
		0:  100,
		9:  109,
		10: 140, // second frame
		15: 145,
		25: 185, // third frame, 5 within
	}
	for logical, want := range cases {
		if got := v.physical(logical); got != want {
			t.Errorf("physical(%d) = %d, want %d", logical, got, want)
		}
	}
	c := View{Disp: 7}
	if c.physical(13) != 20 {
		t.Error("contiguous displacement")
	}
}

func TestDisplacementView(t *testing.T) {
	reg := memRegistry()
	f, _ := OpenLocal(reg, "mem:/disp", adio.O_RDWR|adio.O_CREATE, nil)
	defer f.Close()
	if err := f.SetView(View{Disp: 1000}); err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("header-skipped"), 0)
	// Physically the bytes landed at offset 1000.
	f.SetView(View{})
	got := make([]byte, 14)
	if _, err := f.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if string(got) != "header-skipped" {
		t.Fatalf("got %q", got)
	}
}

func TestStridedViewWriteRead(t *testing.T) {
	// Two ranks interleave 8-byte records via views, then verify the
	// physical layout.
	reg := memRegistry()
	const rec = 8
	const nrec = 16
	err := mpi.Run(2, func(c *mpi.Comm) error {
		f, err := Open(c, reg, "mem:/interleaved", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			return err
		}
		defer f.Close()
		// Rank r sees records r, r+2, r+4, ...
		if err := f.SetView(View{Disp: int64(c.Rank() * rec), BlockLen: rec, Stride: 2 * rec}); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('A' + c.Rank())}, rec*nrec)
		if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
			return fmt.Errorf("rank %d: viewed write = %d, %v", c.Rank(), n, err)
		}
		c.Barrier()
		// Read back through the view: only own records.
		got := make([]byte, rec*nrec)
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			return err
		}
		for i, b := range got {
			if b != byte('A'+c.Rank()) {
				return fmt.Errorf("rank %d: viewed byte %d = %c", c.Rank(), i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Physical check: records alternate A,B,A,B...
	mem, _ := reg.Lookup("mem")
	pf, err := mem.Open("/interleaved", adio.O_RDONLY, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	phys := make([]byte, 2*rec*nrec)
	if _, err := pf.ReadAt(phys, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := 0; i < 2*nrec; i++ {
		want := byte('A' + i%2)
		if phys[i*rec] != want || phys[(i+1)*rec-1] != want {
			t.Fatalf("physical record %d corrupted (got %c want %c)", i, phys[i*rec], want)
		}
	}
}

// TestConcurrentInterleavedViewWrites: four SRBFS handles each write their
// own dense interleaved view of one file at the same time, and every rank's
// records survive. SRBFS implements adio.VectorIO, so each write is list
// I/O that touches only its own records. Through a driver without VectorIO
// the same writes are sieved read-modify-write cycles over windows that
// hold the other ranks' records: exactly the one-writer-per-window
// violation the sieving contract forbids, in which one rank's write-back
// can undo its neighbours' records.
func TestConcurrentInterleavedViewWrites(t *testing.T) {
	const ranks, rec, nrec = 4, 512, 64
	reg := srbRegistry(srb.NewMemServer(storage.DeviceSpec{}))
	prepFile(t, reg, "srb:/interleaved", nil)
	files := make([]*File, ranks)
	for r := range files {
		f, err := OpenLocal(reg, "srb:/interleaved", adio.O_RDWR, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetView(View{Disp: int64(r * rec), BlockLen: rec, Stride: ranks * rec}); err != nil {
			t.Fatal(err)
		}
		files[r] = f
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r, f := range files {
		wg.Add(1)
		go func(r int, f *File) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + r)}, rec*nrec)
			<-start
			if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
				t.Errorf("rank %d: viewed write = %d, %v", r, n, err)
			}
		}(r, f)
	}
	close(start)
	wg.Wait()
	for _, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	phys := physContents(t, reg, "srb:/interleaved")
	if len(phys) != ranks*rec*nrec {
		t.Fatalf("file is %d bytes, want %d", len(phys), ranks*rec*nrec)
	}
	for i, b := range phys {
		if want := byte('A' + i/rec%ranks); b != want {
			t.Fatalf("physical byte %d = %c, want %c (record %d lost)", i, b, want, i/rec)
		}
	}
}

func TestViewedFilePointer(t *testing.T) {
	reg := memRegistry()
	f, _ := OpenLocal(reg, "mem:/vfp", adio.O_RDWR|adio.O_CREATE, nil)
	defer f.Close()
	f.SetView(View{BlockLen: 4, Stride: 8})
	f.Write([]byte("aaaa")) // frame 0
	f.Write([]byte("bbbb")) // frame 1 -> physical offset 8
	f.SetView(View{})
	phys := make([]byte, 12)
	if _, err := f.ReadAt(phys, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(phys[0:4]) != "aaaa" || string(phys[8:12]) != "bbbb" {
		t.Fatalf("physical = %q", phys)
	}
	// The gap is untouched (zeros).
	if phys[4] != 0 || phys[7] != 0 {
		t.Fatalf("gap written: %q", phys[4:8])
	}
}

func TestSetViewResetsPointerAndChecksClosed(t *testing.T) {
	reg := memRegistry()
	f, _ := OpenLocal(reg, "mem:/vr", adio.O_RDWR|adio.O_CREATE, nil)
	f.Write(make([]byte, 100))
	if f.Tell() != 100 {
		t.Fatal("fp")
	}
	if err := f.SetView(View{Disp: 10}); err != nil {
		t.Fatal(err)
	}
	if f.Tell() != 0 {
		t.Fatal("SetView must reset the file pointer")
	}
	if err := f.SetView(View{BlockLen: 8, Stride: 4}); err == nil {
		t.Fatal("invalid view accepted")
	}
	f.Close()
	if err := f.SetView(View{}); err != ErrClosed {
		t.Fatalf("SetView after close = %v", err)
	}
}

func TestViewedAsyncWrites(t *testing.T) {
	reg := memRegistry()
	f, _ := OpenLocal(reg, "mem:/va", adio.O_RDWR|adio.O_CREATE, nil)
	defer f.Close()
	f.SetView(View{Disp: 64})
	req := f.IWriteAt([]byte("through-view"), 0)
	if _, err := Wait(req); err != nil {
		t.Fatal(err)
	}
	f.SetView(View{})
	got := make([]byte, 12)
	if _, err := f.ReadAt(got, 64); err != nil {
		t.Fatal(err)
	}
	if string(got) != "through-view" {
		t.Fatalf("got %q", got)
	}
}
