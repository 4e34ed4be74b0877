package mpiio

import (
	"errors"
	"io"
	"testing"

	"semplar/internal/adio"
)

// shortFile is an adio.File whose WriteAt/ReadAt move at most cap bytes
// per call (optionally with an error), for exercising the file-pointer
// bookkeeping around partial operations. Its vector calls are counted and
// run one clipped segment at a time.
type shortFile struct {
	data    []byte
	cap     int
	werr    error // returned alongside short writes
	lastOff int64
	vecs    int // ReadAtVec and WriteAtVec calls
}

func (f *shortFile) clip(p []byte) []byte {
	if f.cap > 0 && len(p) > f.cap {
		return p[:f.cap]
	}
	return p
}

func (f *shortFile) WriteAt(p []byte, off int64) (int, error) {
	f.lastOff = off
	p = f.clip(p)
	need := int(off) + len(p)
	for len(f.data) < need {
		f.data = append(f.data, 0)
	}
	copy(f.data[off:], p)
	if f.cap > 0 {
		return len(p), f.werr
	}
	return len(p), nil
}

func (f *shortFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(f.clip(p), f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *shortFile) ReadAtVec(segs []adio.Vec) (int, error) {
	f.vecs++
	return segLoop(segs, f.ReadAt, io.EOF)
}

func (f *shortFile) WriteAtVec(segs []adio.Vec) (int, error) {
	f.vecs++
	return segLoop(segs, f.WriteAt, io.ErrShortWrite)
}

// segLoop applies op to each segment in order and stops at the first error
// or short transfer, which reports short: the adio.VectorIO semantics.
func segLoop(segs []adio.Vec, op func([]byte, int64) (int, error), short error) (int, error) {
	total := 0
	for _, s := range segs {
		n, err := op(s.Buf, s.Off)
		total += n
		if err != nil {
			return total, err
		}
		if n < len(s.Buf) {
			return total, short
		}
	}
	return total, nil
}

func (f *shortFile) Size() (int64, error)    { return int64(len(f.data)), nil }
func (f *shortFile) Truncate(sz int64) error { f.data = f.data[:sz]; return nil }
func (f *shortFile) Sync() error             { return nil }
func (f *shortFile) Close() error            { return nil }

type shortDriver struct{ file *shortFile }

func (d *shortDriver) Name() string { return "short" }
func (d *shortDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	return d.file, nil
}
func (d *shortDriver) Delete(path string) error { return nil }

func shortRegistry(file *shortFile) *adio.Registry {
	r := &adio.Registry{}
	r.Register(&shortDriver{file: file})
	return r
}

func TestWriteShortRollsBackFilePointer(t *testing.T) {
	inner := &shortFile{cap: 4, werr: io.ErrShortWrite}
	f, err := OpenLocal(shortRegistry(inner), "short:/f", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	n, err := f.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write = %d, %v; want 4, ErrShortWrite", n, err)
	}
	// The file pointer must sit after the bytes actually written, not
	// after the bytes requested — otherwise the next write leaves a hole.
	if fp := f.Tell(); fp != 4 {
		t.Fatalf("fp after short write = %d, want 4", fp)
	}
	inner.cap = 0 // healthy again
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if inner.lastOff != 4 {
		t.Fatalf("follow-up write landed at %d, want 4 (no hole)", inner.lastOff)
	}
	if fp := f.Tell(); fp != 7 {
		t.Fatalf("fp = %d, want 7", fp)
	}
}

func TestIWriteShortRollsBackFilePointer(t *testing.T) {
	inner := &shortFile{cap: 4, werr: io.ErrShortWrite}
	f, err := OpenLocal(shortRegistry(inner), "short:/f", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := f.IWrite([]byte("0123456789"))
	if n, err := Wait(req); n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("async short write = %d, %v", n, err)
	}
	if fp := f.Tell(); fp != 4 {
		t.Fatalf("fp after async short write = %d, want 4", fp)
	}
}

func TestIWriteNoRollbackWhenPointerMovedOn(t *testing.T) {
	// Back-to-back nonblocking writes claim consecutive regions up
	// front. A short completion of the FIRST must not yank the pointer
	// back under the second's feet.
	inner := &shortFile{cap: 4, werr: io.ErrShortWrite}
	f, err := OpenLocal(shortRegistry(inner), "short:/f", adio.O_RDWR|adio.O_CREATE,
		adio.Hints{"io_threads": "1"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	r1 := f.IWrite([]byte("0123456789")) // will complete short at 4
	r2 := f.IWrite([]byte("abcde"))      // claimed [10, 15) already
	Wait(r1)
	Wait(r2)
	// r1's short completion must NOT yank the pointer back to 4 — r2
	// already claimed [10, 15). r2's own short completion (4 of 5) may
	// legitimately correct 15 to 14, since nothing claimed past it.
	if fp := f.Tell(); fp != 14 {
		t.Fatalf("fp = %d, want 14 (r1 must not roll back, r2 may)", fp)
	}
}

func TestWriteErrorRollsBackFully(t *testing.T) {
	boom := errors.New("device detached")
	inner := &shortFile{cap: 1, werr: boom}
	inner.cap = 1
	f, err := OpenLocal(shortRegistry(inner), "short:/f", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("xyz"))
	if err == nil {
		t.Fatal("write reported success through failing device")
	}
	if fp := f.Tell(); fp != int64(n) {
		t.Fatalf("fp = %d after %d-byte failed write", fp, n)
	}
}

// TestStridedWriteShortRollsBackFilePointer: a strided Write() is one
// WriteAtVec, and when that comes up short the file pointer sits after the
// logical prefix the driver confirmed.
func TestStridedWriteShortRollsBackFilePointer(t *testing.T) {
	inner := &shortFile{cap: 4, werr: io.ErrShortWrite}
	f, err := OpenLocal(shortRegistry(inner), "short:/f", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SetView(View{BlockLen: 4, Stride: 8}); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) || inner.vecs != 1 {
		t.Fatalf("strided short write = %d, %v in %d vector calls; want 4, ErrShortWrite in 1", n, err, inner.vecs)
	}
	if fp := f.Tell(); fp != 4 {
		t.Fatalf("fp after strided short write = %d, want 4", fp)
	}
}
