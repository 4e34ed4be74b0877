package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"semplar/internal/adio"
)

// naiveViewIO splits the logical range on frame boundaries and pays one
// scalar driver op per contiguous piece: the semantic reference that list
// I/O, on every driver, must match byte for byte and on (n, err).
func (f *File) naiveViewIO(v View, p []byte, off int64, write bool) (int, error) {
	total := 0
	for len(p) > 0 {
		logical := off + int64(total)
		take := min(v.BlockLen-logical%v.BlockLen, int64(len(p)))
		phys := v.physical(logical)
		var n int
		var err error
		if write {
			n, err = f.inner.WriteAt(p[:take], phys)
		} else {
			n, err = f.inner.ReadAt(p[:take], phys)
		}
		total += n
		p = p[take:]
		if err != nil {
			if err == io.EOF && len(p) == 0 && int64(n) == take {
				// Exactly filled the final piece.
				return total, nil
			}
			return total, err
		}
		if int64(n) < take {
			return total, io.EOF
		}
	}
	return total, nil
}

// callCounts counts the data calls a countDriver's handles pass down,
// scalar and vector, so a test can tell which path a transfer took.
type callCounts struct {
	reads, writes       int
	readVecs, writeVecs int
}

// countFile wraps a memfs file and counts every data call. It defines the
// vector methods itself: with adio.File embedding adio.VectorIO, a wrapper
// that left them to the embedded file would pass vector calls down
// uncounted.
type countFile struct {
	adio.File
	ctl *callCounts
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.ctl.reads++
	return f.File.ReadAt(p, off)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.ctl.writes++
	return f.File.WriteAt(p, off)
}

func (f *countFile) ReadAtVec(segs []adio.Vec) (int, error) {
	f.ctl.readVecs++
	return f.File.ReadAtVec(segs)
}

func (f *countFile) WriteAtVec(segs []adio.Vec) (int, error) {
	f.ctl.writeVecs++
	return f.File.WriteAtVec(segs)
}

// countDriver serves the files of a memfs driver as countFiles.
type countDriver struct {
	mem adio.Driver
	ctl *callCounts
}

func (d *countDriver) Name() string { return "count" }
func (d *countDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.mem.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, ctl: d.ctl}, nil
}
func (d *countDriver) Delete(path string) error { return d.mem.Delete(path) }

// countRegistry serves one in-memory store under two schemes: "mem" is
// plain memfs, "count" is the same store through a countDriver over ctl.
func countRegistry(ctl *callCounts) *adio.Registry {
	mem := adio.NewMemFS()
	reg := &adio.Registry{}
	reg.Register(mem)
	reg.Register(&countDriver{mem: mem, ctl: ctl})
	return reg
}

// ufsRegistry serves host files; paths without a scheme are ufs.
func ufsRegistry() *adio.Registry {
	reg := &adio.Registry{}
	reg.Register(adio.UFSDriver{})
	return reg
}

// prepFile creates path with the given physical content through a plain
// contiguous handle.
func prepFile(t *testing.T, reg *adio.Registry, path string, content []byte) {
	t.Helper()
	f, err := OpenLocal(reg, path, adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil)
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
	f, err := OpenLocal(reg, path, adio.O_RDONLY, nil)
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

// ufsPair holds two ufs files that start with the same content: lio is
// accessed through mpiio's list I/O, which ufs serves by data sieving;
// naive through the per-piece reference. Both handles carry view v.
type ufsPair struct {
	reg                *adio.Registry
	lioPath, naivePath string
	lio, naive         *File
	v                  View
}

func newUFSPair(t *testing.T, v View, content []byte) *ufsPair {
	t.Helper()
	dir := t.TempDir()
	u := &ufsPair{reg: ufsRegistry(), lioPath: filepath.Join(dir, "lio"), naivePath: filepath.Join(dir, "naive"), v: v}
	for _, p := range []string{u.lioPath, u.naivePath} {
		prepFile(t, u.reg, p, content)
		f, err := OpenLocal(u.reg, p, adio.O_RDWR, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if err := f.SetView(v); err != nil {
			t.Fatal(err)
		}
		if p == u.lioPath {
			u.lio = f
		} else {
			u.naive = f
		}
	}
	return u
}

// read reads n logical bytes at off through both handles and fails unless
// bytes and (n, err) agree; it returns the agreed result.
func (u *ufsPair) read(t *testing.T, off int64, n int) (int, error) {
	t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	gn, gerr := u.lio.ReadAt(got, off)
	wn, werr := u.naive.naiveViewIO(u.v, want, off, false)
	if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
		t.Fatalf("read %d at %d: list I/O = (%d, %v), naive = (%d, %v), same bytes %v",
			n, off, gn, gerr, wn, werr, bytes.Equal(got[:gn], want[:wn]))
	}
	return gn, gerr
}

// write writes data at off through both handles and fails unless (n, err)
// and the whole physical files agree.
func (u *ufsPair) write(t *testing.T, data []byte, off int64) {
	t.Helper()
	gn, gerr := u.lio.WriteAt(data, off)
	wn, werr := u.naive.naiveViewIO(u.v, data, off, true)
	if gn != wn || gerr != werr {
		t.Fatalf("write %d at %d: list I/O = (%d, %v), naive = (%d, %v)", len(data), off, gn, gerr, wn, werr)
	}
	lb, nb := physContents(t, u.reg, u.lioPath), physContents(t, u.reg, u.naivePath)
	if !bytes.Equal(lb, nb) {
		t.Fatalf("write %d at %d: physical files differ: list I/O %d bytes, naive %d bytes", len(data), off, len(lb), len(nb))
	}
}

// sieveView holds 8 frames per 512 KiB ufs sieve window: 7*64 KiB + 4 KiB
// fits, 8*64 KiB + 4 KiB does not.
var sieveView = View{BlockLen: 4 << 10, Stride: 64 << 10}

// TestSievedReadMatchesNaive: a strided read through mpiio on ufs, which
// sieves inside its list I/O, returns exactly what the naive per-piece loop
// returns: same count, same error, same bytes. The grid covers runs that
// straddle EOF, transfers inside one window and frames too long to share
// one, and the BlockLen == Stride degenerate.
func TestSievedReadMatchesNaive(t *testing.T) {
	const fr = 9 * 64 << 10 // physical start of frame 9, in the second window
	cases := []struct {
		name     string
		view     View
		fileSize int
		off      int64
		readLen  int
	}{
		{"aligned multi-window", sieveView, 1200 << 10, 0, 72 << 10},
		{"mid-block start", sieveView, 1200 << 10, 7, 70000},
		{"disp offset", View{Disp: 100, BlockLen: 8192, Stride: 100000}, 1200 << 10, 3, 70000},
		{"eof straddles window", sieveView, fr + 10000, 0, 72 << 10},
		{"eof mid-piece", sieveView, fr + 1176, 0, 72 << 10},
		{"exact fill to eof", sieveView, fr + 4096, 0, 10 * 4096},
		{"wholly past eof", sieveView, 100000, 10 * 4096, 16384},
		{"blocklen equals stride", View{BlockLen: 32 << 10, Stride: 32 << 10}, 1200 << 10, 5, 300000},
		{"window bigger than transfer", sieveView, 1200 << 10, 0, 10000},
		{"buffer too small to sieve", View{BlockLen: 520 << 10, Stride: 600000}, 1300000, 0, 1100000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newUFSPair(t, c.view, pattern(c.fileSize, 3)).read(t, c.off, c.readLen)
		})
	}
}

// TestSievedWriteMatchesNaive: a strided write through mpiio on ufs leaves
// the physical file (gap bytes, zero-fill beyond the old EOF, final size)
// identical to the naive per-piece loop writing the same data.
func TestSievedWriteMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		view     View
		fileSize int // prefill; 0 writes into an empty file
		off      int64
		writeLen int
	}{
		{"rmw over prefilled gaps", sieveView, 1200 << 10, 0, 72 << 10},
		{"mid-block start", sieveView, 1200 << 10, 9, 70000},
		{"grow empty file", sieveView, 0, 0, 72 << 10},
		{"grow past eof mid-window", sieveView, 200000, 0, 72 << 10},
		{"disp offset", View{Disp: 55, BlockLen: 8192, Stride: 98304}, 1 << 20, 2, 90000},
		{"blocklen equals stride", View{BlockLen: 32 << 10, Stride: 32 << 10}, 1 << 20, 7, 300000},
		{"partial final frame", sieveView, 0, 0, 10000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newUFSPair(t, c.view, pattern(c.fileSize, 7)).write(t, pattern(c.writeLen, 101), c.off)
		})
	}
}

// TestUFSStridedView: dense and sparse strided views end to end on ufs
// through mpiio. Writes spanning two sieve windows leave the same physical
// file as the naive loop, read back the same, and a read that straddles
// EOF returns the same prefix and io.EOF.
func TestUFSStridedView(t *testing.T) {
	for _, v := range []View{{BlockLen: 2048, Stride: 4096}, {BlockLen: 512, Stride: 4096}} {
		t.Run(fmt.Sprintf("%dof%d", v.BlockLen, v.Stride), func(t *testing.T) {
			b := int(v.BlockLen)
			// 256 frames of 4 KiB; the last one is cut to half a block.
			u := newUFSPair(t, v, pattern(255*4096+b/2, 11))
			u.write(t, pattern(200*b, 23), int64(b/3))
			if n, err := u.read(t, 0, 200*b); n != 200*b || err != nil {
				t.Fatalf("read back = (%d, %v)", n, err)
			}
			if n, err := u.read(t, int64(250*b+1), 20*b); n != 5*b+b/2-1 || err != io.EOF {
				t.Fatalf("eof-straddling read = (%d, %v), want (%d, EOF)", n, err, 5*b+b/2-1)
			}
			u.write(t, pattern(20*b, 29), int64(250*b+5))
		})
	}
}

// TestListIOView: every strided transfer spanning frames is exactly one
// vector call, at any density: no scalar call, no amplification, and a
// write reads nothing. It matches the naive per-piece loop on bytes and
// (n, err), including a read that straddles EOF and one that fills exactly
// to it.
func TestListIOView(t *testing.T) {
	views := []View{
		{BlockLen: 4, Stride: 64},
		{BlockLen: 48, Stride: 64},
		{BlockLen: 63, Stride: 64},
		{Disp: 10, BlockLen: 2048, Stride: 4096},
	}
	for _, v := range views {
		t.Run(fmt.Sprintf("%dof%d", v.BlockLen, v.Stride), func(t *testing.T) {
			ctl := &callCounts{}
			reg := countRegistry(ctl)
			// The file ends halfway into frame 30.
			b := int(v.BlockLen)
			content := pattern(int(v.Disp+30*v.Stride)+b/2, 9)
			prepFile(t, reg, "mem:/lv", content)
			prepFile(t, reg, "mem:/nv", content)
			lio, err := OpenLocal(reg, "count:/lv", adio.O_RDWR, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer lio.Close()
			naive, err := OpenLocal(reg, "mem:/nv", adio.O_RDWR, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			lio.SetView(v)

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
				*ctl = callCounts{}
				physRead := lio.Stats().PhysBytesRead
				got, want := make([]byte, x.n), make([]byte, x.n)
				var gn, wn int
				var gerr, werr error
				if x.write {
					got = pattern(x.n, 200)
					gn, gerr = lio.WriteAt(got, x.off)
					wn, werr = naive.naiveViewIO(v, got, x.off, true)
				} else {
					gn, gerr = lio.ReadAt(got, x.off)
					wn, werr = naive.naiveViewIO(v, want, x.off, false)
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

// TestRollbackFPShortSievedRead: a strided Read() is one ReadAtVec, and when
// that comes up short at EOF the file pointer rolls back to the prefix
// actually delivered, exactly as on the contiguous path. On ufs the short
// vector read is a sieved one.
func TestRollbackFPShortSievedRead(t *testing.T) {
	v := View{BlockLen: 16, Stride: 64}
	ctl := &callCounts{}
	for _, x := range []struct {
		reg     *adio.Registry
		path    string
		counted bool
	}{
		{countRegistry(ctl), "count:/f", true},
		{ufsRegistry(), filepath.Join(t.TempDir(), "f"), false},
	} {
		prepFile(t, x.reg, x.path, pattern(300, 1))
		f, err := OpenLocal(x.reg, x.path, adio.O_RDONLY, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		wantN, wantErr := f.naiveViewIO(v, make([]byte, 1000), 0, false)
		f.SetView(v)
		*ctl = callCounts{}
		n, rerr := f.Read(make([]byte, 1000))
		if n != wantN || rerr != wantErr || rerr != io.EOF {
			t.Fatalf("%s: Read = (%d, %v), naive = (%d, %v), want a short read at EOF", x.path, n, rerr, wantN, wantErr)
		}
		if f.Tell() != int64(n) {
			t.Fatalf("%s: fp = %d after short read of %d", x.path, f.Tell(), n)
		}
		if x.counted && (ctl.readVecs != 1 || ctl.reads != 0) {
			t.Fatalf("%s: %d vector and %d scalar reads, want 1 and 0", x.path, ctl.readVecs, ctl.reads)
		}
	}
}
