package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"semplar/internal/adio"
)

// naiveHints disables data sieving. On a driver without adio.VectorIO (the
// "fault:" paths of scalarRegistry) a strided access then runs the naive
// per-piece loop: the semantic reference the sieved and list-I/O paths must
// match byte for byte.
var naiveHints = adio.Hints{"sieve": "off"}

// scalarRegistry serves one in-memory store under two schemes: "mem" is
// memfs, which implements adio.VectorIO and so takes list I/O for strided
// access; "fault" is faultDriver over the same store, which does not, so
// strided access there is sieved, or naive under naiveHints.
func scalarRegistry() *adio.Registry {
	mem := adio.NewMemFS()
	reg := &adio.Registry{}
	reg.Register(mem)
	reg.Register(&faultDriver{mem: mem, ctl: &faultCtl{}})
	return reg
}

// prepFile creates path with the given physical content through a plain
// contiguous handle.
func prepFile(t *testing.T, reg *adio.Registry, path string, content []byte) {
	t.Helper()
	f, err := OpenLocal(reg, path, adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(content) == 0 {
		return
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
}

// physContents reads the whole physical file through a plain handle.
func physContents(t *testing.T, reg *adio.Registry, path string) []byte {
	t.Helper()
	f, err := OpenLocal(reg, path, adio.O_RDONLY, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if sz > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return buf
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*13)
	}
	return b
}

// TestSievedReadMatchesNaive: for a grid of views, file sizes, and transfer
// shapes, a sieved strided read returns exactly what the naive per-piece
// loop returns — same count, same error, same bytes — including windows
// that straddle EOF and the BlockLen == Stride degenerate.
func TestSievedReadMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		view     View
		fileSize int
		off      int64
		readLen  int
		bufSize  string // sieve_buf_size hint; "" for default
	}{
		{"aligned multi-window", View{BlockLen: 16, Stride: 64}, 8192, 0, 1000, "256"},
		{"mid-block start", View{BlockLen: 16, Stride: 64}, 8192, 7, 500, "256"},
		{"disp offset", View{Disp: 100, BlockLen: 32, Stride: 100}, 8192, 3, 700, "512"},
		{"eof straddles window", View{BlockLen: 16, Stride: 64}, 300, 0, 1000, "256"},
		{"eof mid-piece", View{BlockLen: 16, Stride: 64}, 330, 0, 1000, "256"},
		{"exact fill to eof", View{BlockLen: 16, Stride: 64}, 64*9 + 16, 0, 160, "256"},
		{"wholly past eof", View{BlockLen: 16, Stride: 64}, 100, 512, 256, "256"},
		{"blocklen equals stride", View{BlockLen: 32, Stride: 32}, 4096, 5, 1000, "256"},
		{"window bigger than transfer", View{BlockLen: 16, Stride: 64}, 8192, 0, 40, "4096"},
		{"buffer too small to sieve", View{BlockLen: 128, Stride: 256}, 8192, 0, 1000, "64"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := scalarRegistry()
			prepFile(t, reg, "mem:/f", pattern(c.fileSize, 3))

			hints := adio.Hints{}
			if c.bufSize != "" {
				hints["sieve_buf_size"] = c.bufSize
			}
			sieved, err := OpenLocal(reg, "fault:/f", adio.O_RDONLY, hints)
			if err != nil {
				t.Fatal(err)
			}
			defer sieved.Close()
			naive, err := OpenLocal(reg, "fault:/f", adio.O_RDONLY, naiveHints)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			if err := sieved.SetView(c.view); err != nil {
				t.Fatal(err)
			}
			if err := naive.SetView(c.view); err != nil {
				t.Fatal(err)
			}

			got := make([]byte, c.readLen)
			want := make([]byte, c.readLen)
			gn, gerr := sieved.ReadAt(got, c.off)
			wn, werr := naive.ReadAt(want, c.off)
			if gn != wn || !errors.Is(gerr, werr) && gerr != werr {
				t.Fatalf("sieved = (%d, %v), naive = (%d, %v)", gn, gerr, wn, werr)
			}
			if !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatal("sieved bytes differ from naive bytes")
			}
		})
	}
}

// TestSievedWriteMatchesNaive: a sieved strided write leaves the physical
// file — gap bytes, zero-fill beyond old EOF, final size — identical to the
// naive per-piece loop writing the same data through the same view.
func TestSievedWriteMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		view     View
		fileSize int // prefill; 0 writes into an empty file
		off      int64
		writeLen int
		bufSize  string
	}{
		{"rmw over prefilled gaps", View{BlockLen: 16, Stride: 64}, 8192, 0, 1000, "256"},
		{"mid-block start", View{BlockLen: 16, Stride: 64}, 8192, 9, 777, "256"},
		{"grow empty file", View{BlockLen: 16, Stride: 64}, 0, 0, 640, "256"},
		{"grow past eof mid-window", View{BlockLen: 16, Stride: 64}, 200, 0, 1000, "256"},
		{"disp offset", View{Disp: 55, BlockLen: 32, Stride: 96}, 4096, 2, 900, "512"},
		{"blocklen equals stride", View{BlockLen: 32, Stride: 32}, 2048, 7, 500, "256"},
		{"partial final frame", View{BlockLen: 16, Stride: 64}, 0, 0, 100, "256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := scalarRegistry()
			prefill := pattern(c.fileSize, 7)
			prepFile(t, reg, "mem:/sv", prefill)
			prepFile(t, reg, "mem:/nv", prefill)

			hints := adio.Hints{"sieve_buf_size": c.bufSize}
			sieved, err := OpenLocal(reg, "fault:/sv", adio.O_RDWR, hints)
			if err != nil {
				t.Fatal(err)
			}
			defer sieved.Close()
			naive, err := OpenLocal(reg, "fault:/nv", adio.O_RDWR, naiveHints)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			if err := sieved.SetView(c.view); err != nil {
				t.Fatal(err)
			}
			if err := naive.SetView(c.view); err != nil {
				t.Fatal(err)
			}

			data := pattern(c.writeLen, 101)
			gn, gerr := sieved.WriteAt(data, c.off)
			wn, werr := naive.WriteAt(data, c.off)
			if gn != wn || gerr != werr {
				t.Fatalf("sieved = (%d, %v), naive = (%d, %v)", gn, gerr, wn, werr)
			}
			sb := physContents(t, reg, "mem:/sv")
			nb := physContents(t, reg, "mem:/nv")
			if !bytes.Equal(sb, nb) {
				t.Fatalf("physical files differ: sieved %d bytes, naive %d bytes", len(sb), len(nb))
			}
		})
	}
}

// faultCtl injects a hard error on the Nth driver ReadAt/WriteAt (1-based;
// 0 disables injection) and counts driver calls. Shared by every handle the
// fault driver opens.
type faultCtl struct {
	failRead, failWrite int
	reads, writes       int
	readVecs, writeVecs int // vecDriver only
	err                 error
}

type faultFile struct {
	adio.File
	ctl *faultCtl
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.ctl.reads++
	if f.ctl.failRead > 0 && f.ctl.reads >= f.ctl.failRead {
		return 0, f.ctl.err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.ctl.writes++
	if f.ctl.failWrite > 0 && f.ctl.writes >= f.ctl.failWrite {
		return 0, f.ctl.err
	}
	return f.File.WriteAt(p, off)
}

type faultDriver struct {
	mem adio.Driver
	ctl *faultCtl
}

func (d *faultDriver) Name() string { return "fault" }
func (d *faultDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.mem.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, ctl: d.ctl}, nil
}
func (d *faultDriver) Delete(path string) error { return d.mem.Delete(path) }

// vecDriver is faultDriver plus adio.VectorIO: it counts vector calls
// beside the scalar ones, so a test can tell which path a transfer took.
type vecDriver struct{ faultDriver }

func (d *vecDriver) Name() string { return "vec" }
func (d *vecDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.faultDriver.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	return vecFile{f.(*faultFile)}, nil
}

type vecFile struct{ *faultFile }

func (f vecFile) ReadAtVec(segs []adio.Vec) (int, error) {
	f.ctl.readVecs++
	return f.File.(adio.VectorIO).ReadAtVec(segs)
}

func (f vecFile) WriteAtVec(segs []adio.Vec) (int, error) {
	f.ctl.writeVecs++
	return f.File.(adio.VectorIO).WriteAtVec(segs)
}

// TestSievePoolBalanceUnderErrors: every sieve window buffer is returned to
// the pool, on the success path and on every injected-failure path — a
// leaked window under WAN-latency RMW cycles would bleed the pool dry.
func TestSievePoolBalanceUnderErrors(t *testing.T) {
	boom := errors.New("injected device error")
	run := func(failRead, failWrite int, op func(f *File) error) {
		t.Helper()
		ctl := &faultCtl{failRead: failRead, failWrite: failWrite, err: boom}
		reg := &adio.Registry{}
		reg.Register(&faultDriver{mem: adio.NewMemFS(), ctl: ctl})
		f, err := OpenLocal(reg, "fault:/f", adio.O_RDWR|adio.O_CREATE,
			adio.Hints{"sieve_buf_size": "256"})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.SetView(View{BlockLen: 16, Stride: 64}); err != nil {
			t.Fatal(err)
		}
		if err := op(f); err != nil && !errors.Is(err, boom) && err != io.EOF {
			t.Fatalf("unexpected error: %v", err)
		}
	}

	data := pattern(1000, 42)
	ops := []struct {
		name                string
		failRead, failWrite int
		op                  func(f *File) error
	}{
		{"read ok", 0, 0, func(f *File) error { _, err := f.ReadAt(make([]byte, 500), 0); return err }},
		{"read fails first window", 1, 0, func(f *File) error { _, err := f.ReadAt(make([]byte, 500), 0); return err }},
		{"read fails second window", 2, 0, func(f *File) error { _, err := f.ReadAt(make([]byte, 500), 0); return err }},
		{"write ok", 0, 0, func(f *File) error { _, err := f.WriteAt(data, 0); return err }},
		{"write rmw read fails", 1, 0, func(f *File) error { _, err := f.WriteAt(data, 0); return err }},
		{"write back fails", 0, 1, func(f *File) error { _, err := f.WriteAt(data, 0); return err }},
		{"write back fails later window", 0, 2, func(f *File) error { _, err := f.WriteAt(data, 0); return err }},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			gets0, puts0 := sievePool.Balance()
			// Seed the file so reads have something to sieve, then run the op.
			run(0, 0, func(f *File) error { _, err := f.WriteAt(data, 0); return err })
			run(o.failRead, o.failWrite, o.op)
			gets, puts := sievePool.Balance()
			gets, puts = gets-gets0, puts-puts0
			if gets != puts {
				t.Fatalf("sieve pool imbalance: %d gets, %d puts", gets, puts)
			}
			if gets == 0 {
				t.Fatal("op never took the sieved path")
			}
		})
	}
}

// TestListIOView: on a driver with adio.VectorIO every strided transfer
// spanning frames is exactly one vector call, at any density: no scalar
// call, no amplification, and a write reads nothing. It matches the naive
// per-piece loop on bytes and (n, err), including a read that straddles EOF
// and one that fills exactly to it.
func TestListIOView(t *testing.T) {
	views := []View{
		{BlockLen: 4, Stride: 64},
		{BlockLen: 48, Stride: 64},
		{BlockLen: 63, Stride: 64},
		{Disp: 10, BlockLen: 2048, Stride: 4096},
	}
	for _, v := range views {
		t.Run(fmt.Sprintf("%dof%d", v.BlockLen, v.Stride), func(t *testing.T) {
			reg := scalarRegistry()
			mem, _ := reg.Lookup("mem")
			ctl := &faultCtl{}
			reg.Register(&vecDriver{faultDriver{mem: mem, ctl: ctl}})
			// The file ends halfway into frame 30.
			b := int(v.BlockLen)
			content := pattern(int(v.Disp+30*v.Stride)+b/2, 9)
			prepFile(t, reg, "mem:/lv", content)
			prepFile(t, reg, "mem:/nv", content)
			lio, err := OpenLocal(reg, "vec:/lv", adio.O_RDWR, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer lio.Close()
			naive, err := OpenLocal(reg, "fault:/nv", adio.O_RDWR, naiveHints)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			lio.SetView(v)
			naive.SetView(v)

			for _, x := range []struct {
				name    string
				write   bool
				off     int64
				n       int
				wantErr error // reads only
			}{
				{"read", false, 3, 20 * b, nil},
				{"eof-straddling read", false, int64(25*b + 2), 10 * b, io.EOF},
				{"exact fill to eof", false, int64(26 * b), 4*b + b/2, nil},
				{"write", true, int64(b/2 + 1), 12 * b, nil},
				{"write past eof", true, int64(28*b + 1), 6 * b, nil},
			} {
				*ctl = faultCtl{}
				physRead := lio.Stats().PhysBytesRead
				got, want := make([]byte, x.n), make([]byte, x.n)
				var gn, wn int
				var gerr, werr error
				if x.write {
					got = pattern(x.n, 200)
					gn, gerr = lio.WriteAt(got, x.off)
					wn, werr = naive.WriteAt(got, x.off)
				} else {
					gn, gerr = lio.ReadAt(got, x.off)
					wn, werr = naive.ReadAt(want, x.off)
				}
				if gn != wn || gerr != werr {
					t.Fatalf("%s: list I/O = (%d, %v), naive = (%d, %v)", x.name, gn, gerr, wn, werr)
				}
				if !x.write && (gerr != x.wantErr || !bytes.Equal(got[:gn], want[:wn])) {
					t.Fatalf("%s: err %v (want %v), bytes equal %v", x.name, gerr, x.wantErr, bytes.Equal(got[:gn], want[:wn]))
				}
				if vecs := ctl.readVecs + ctl.writeVecs; vecs != 1 || ctl.reads+ctl.writes != 0 {
					t.Fatalf("%s: %d vector and %d scalar driver calls, want 1 and 0", x.name, vecs, ctl.reads+ctl.writes)
				}
				st := lio.Stats()
				if st.PhysBytesRead != st.BytesRead || st.PhysBytesWritten != st.BytesWritten {
					t.Fatalf("%s: list I/O amplified: %+v", x.name, st)
				}
				if x.write && (ctl.readVecs != 0 || st.PhysBytesRead != physRead) {
					t.Fatalf("%s: a list-I/O write read from the driver", x.name)
				}
			}
			if !bytes.Equal(physContents(t, reg, "mem:/lv"), physContents(t, reg, "mem:/nv")) {
				t.Fatal("list-I/O writes left different physical bytes than naive")
			}
		})
	}
}

// TestSieveAmplificationStats: sieved access moves window bytes through the
// driver while the application sees logical bytes — FileStats must expose
// both so the amplification is observable, and the amplification must buy
// fewer driver round trips than the naive loop.
func TestSieveAmplificationStats(t *testing.T) {
	ctl := &faultCtl{} // no fault injected: it only counts driver calls
	reg := &adio.Registry{}
	reg.Register(&faultDriver{mem: adio.NewMemFS(), ctl: ctl})
	prepFile(t, reg, "fault:/f", pattern(8192, 5))
	view := View{BlockLen: 16, Stride: 64}
	f, err := OpenLocal(reg, "fault:/f", adio.O_RDWR, adio.Hints{"sieve_buf_size": "1024"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetView(view)

	ctl.reads = 0
	if _, err := f.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BytesRead != 512 {
		t.Fatalf("logical BytesRead = %d, want 512", st.BytesRead)
	}
	// 512 logical bytes at density 1/4 touch ~2048 physical bytes.
	if st.PhysBytesRead < 3*st.BytesRead {
		t.Fatalf("PhysBytesRead = %d, expected ~4x logical %d", st.PhysBytesRead, st.BytesRead)
	}
	naive, err := OpenLocal(reg, "fault:/f", adio.O_RDONLY, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.SetView(view)
	sieved := ctl.reads
	ctl.reads = 0
	if _, err := naive.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if windows := int((st.PhysBytesRead + 1023) / 1024); sieved > windows || ctl.reads != 512/16 {
		t.Fatalf("driver reads: sieved %d (want <= %d windows), naive %d (want one per frame, %d)",
			sieved, windows, ctl.reads, 512/16)
	}
	if _, err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.PhysBytesWritten < 3*st.BytesWritten {
		t.Fatalf("PhysBytesWritten = %d, expected ~4x logical %d", st.PhysBytesWritten, st.BytesWritten)
	}
}

// TestRollbackFPShortSievedRead: a sieved Read() that comes up short at EOF
// rolls the file pointer back to the bytes actually delivered, exactly as
// the contiguous path does.
func TestRollbackFPShortSievedRead(t *testing.T) {
	reg := scalarRegistry()
	prepFile(t, reg, "mem:/f", pattern(300, 1))
	f, err := OpenLocal(reg, "fault:/f", adio.O_RDONLY, adio.Hints{"sieve_buf_size": "256"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetView(View{BlockLen: 16, Stride: 64})

	naive, err := OpenLocal(reg, "fault:/f", adio.O_RDONLY, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.SetView(View{BlockLen: 16, Stride: 64})
	wantN, wantErr := naive.Read(make([]byte, 1000))

	n, rerr := f.Read(make([]byte, 1000))
	if n != wantN || rerr != wantErr {
		t.Fatalf("sieved Read = (%d, %v), naive = (%d, %v)", n, rerr, wantN, wantErr)
	}
	if rerr != io.EOF {
		t.Fatalf("expected short read at EOF, got %v", rerr)
	}
	if f.Tell() != int64(n) {
		t.Fatalf("fp = %d after short sieved read of %d", f.Tell(), n)
	}
}

// TestSieveHintValidation: malformed noncontiguous-access hints fail Open.
func TestSieveHintValidation(t *testing.T) {
	bad := []adio.Hints{
		{"sieve": "maybe"},
		{"sieve_buf_size": "0"},
		{"sieve_buf_size": "-5"},
		{"sieve_buf_size": "many"},
	}
	for i, h := range bad {
		reg := memRegistry()
		if _, err := OpenLocal(reg, "mem:/f", adio.O_RDWR|adio.O_CREATE, h); err == nil {
			t.Errorf("case %d: hints %v accepted", i, h)
		}
	}
}

// TestNextWindowMath pins the window-sizing arithmetic: frame capacity,
// clamping to the transfer tail, and the no-overshoot guarantee for the
// physical extent.
func TestNextWindowMath(t *testing.T) {
	v := View{BlockLen: 16, Stride: 64}
	// bufSize 256: headroom 240, k = 240/64+1 = 4 frames, 64 logical bytes.
	w, ok := nextWindow(v, 0, 1<<20, 256)
	if !ok || w.take != 64 {
		t.Fatalf("window = %+v ok=%v, want take 64", w, ok)
	}
	if w.physLen != 3*64+16 {
		t.Fatalf("physLen = %d, want %d (no overshoot past final piece)", w.physLen, 3*64+16)
	}
	// Transfer smaller than capacity: take clamps, phys ends at last byte+1.
	w, ok = nextWindow(v, 0, 20, 256)
	if !ok || w.take != 20 || w.physLen != 64+4 {
		t.Fatalf("clamped window = %+v ok=%v, want take 20 physLen 68", w, ok)
	}
	// Buffer fits one frame only: not worth sieving.
	if _, ok := nextWindow(v, 0, 1000, 70); ok {
		t.Fatal("one-frame buffer should refuse to sieve")
	}
	// Mid-block start shifts the physical base.
	w, ok = nextWindow(v, 5, 1000, 256)
	if !ok || w.physStart != 5 {
		t.Fatalf("mid-block window = %+v ok=%v, want physStart 5", w, ok)
	}
}
