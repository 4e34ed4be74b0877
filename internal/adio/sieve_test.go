package adio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
)

// fakeFile is a byte-slice file that counts device calls and bytes and
// injects faults: from the failRead-th ReadAt (1-based; 0 never) on, reads
// fail with err, and likewise writes from the failWrite-th; a WriteAt moves
// at most wcap bytes (0: no cap) and reports io.ErrShortWrite when capped.
type fakeFile struct {
	data                  []byte
	reads, writes         int
	readBytes, wroteBytes int
	failRead, failWrite   int
	wcap                  int
	err                   error
}

func (f *fakeFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	if f.failRead > 0 && f.reads >= f.failRead {
		return 0, f.err
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	f.readBytes += n
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fakeFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.failWrite > 0 && f.writes >= f.failWrite {
		return 0, f.err
	}
	var err error
	if f.wcap > 0 && len(p) > f.wcap {
		p, err = p[:f.wcap], io.ErrShortWrite
	}
	if end := int(off) + len(p); end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	f.wroteBytes += copy(f.data[off:], p)
	return len(p), err
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*13)
	}
	return b
}

// viewSegs cuts the n logical bytes at logical offset off of a strided
// layout (frames of blockLen every stride bytes from disp) into segments on
// frame boundaries, as the MPI-IO layer does, with data taken from src (or
// fresh zeroed buffers when src is nil).
func viewSegs(disp, blockLen, stride, off int64, n int, src []byte) []Vec {
	if src == nil {
		src = make([]byte, n)
	}
	var segs []Vec
	for rest, lg := src[:n], off; len(rest) > 0; {
		take := min(blockLen-lg%blockLen, int64(len(rest)))
		segs = append(segs, Vec{Off: disp + lg/blockLen*stride + lg%blockLen, Buf: rest[:take]})
		rest, lg = rest[take:], lg+take
	}
	return segs
}

// TestSieveReadMatchesLoop: over a grid of layouts, file sizes, windows and
// transfer shapes, a sieved read returns exactly what the per-segment loop
// returns (same count, same error, same bytes), including runs that
// straddle EOF, segments longer than the window, and segment lists that
// are adjacent, out of order or overlapping.
func TestSieveReadMatchesLoop(t *testing.T) {
	cases := []struct {
		name                   string
		disp, blockLen, stride int64
		fileSize               int
		off                    int64
		n                      int
		window                 int64
	}{
		{"aligned multi-window", 0, 16, 64, 8192, 0, 1000, 256},
		{"mid-block start", 0, 16, 64, 8192, 7, 500, 256},
		{"disp offset", 100, 32, 100, 8192, 3, 700, 512},
		{"eof straddles window", 0, 16, 64, 300, 0, 1000, 256},
		{"eof mid-piece", 0, 16, 64, 330, 0, 1000, 256},
		{"exact fill to eof", 0, 16, 64, 64*9 + 16, 0, 160, 256},
		{"wholly past eof", 0, 16, 64, 100, 512, 256, 256},
		{"adjacent segments", 0, 32, 32, 4096, 5, 1000, 256},
		{"window bigger than transfer", 0, 16, 64, 8192, 0, 40, 4096},
		{"segment longer than window", 0, 128, 256, 8192, 0, 1000, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			content := pattern(c.fileSize, 3)
			got := viewSegs(c.disp, c.blockLen, c.stride, c.off, c.n, nil)
			want := viewSegs(c.disp, c.blockLen, c.stride, c.off, c.n, nil)
			checkRead(t, content, got, want, c.window)
		})
	}
	t.Run("unsorted and overlapping", func(t *testing.T) {
		seg := func(off int64, n int) Vec { return Vec{Off: off, Buf: make([]byte, n)} }
		got := []Vec{seg(300, 20), seg(100, 50), seg(120, 50), seg(400, 10), seg(0, 8)}
		want := []Vec{seg(300, 20), seg(100, 50), seg(120, 50), seg(400, 10), seg(0, 8)}
		checkRead(t, pattern(1000, 5), got, want, 512)
	})
}

func checkRead(t *testing.T, content []byte, got, want []Vec, window int64) {
	t.Helper()
	gn, gerr := sieveReadVec(&fakeFile{data: content}, got, window)
	wn, werr := loopVec(want, (&fakeFile{data: content}).ReadAt, io.EOF)
	if gn != wn || gerr != werr {
		t.Fatalf("sieved = (%d, %v), loop = (%d, %v)", gn, gerr, wn, werr)
	}
	for i := range got {
		if !bytes.Equal(got[i].Buf, want[i].Buf) {
			t.Fatalf("segment %d: sieved bytes differ from loop bytes", i)
		}
	}
}

// TestSieveWriteMatchesLoop: a sieved write leaves the file (gap bytes,
// zero fill beyond the old EOF, final size) identical to the per-segment
// loop writing the same data.
func TestSieveWriteMatchesLoop(t *testing.T) {
	cases := []struct {
		name                   string
		disp, blockLen, stride int64
		fileSize               int // prefill; 0 writes into an empty file
		off                    int64
		n                      int
		window                 int64
	}{
		{"rmw over prefilled gaps", 0, 16, 64, 8192, 0, 1000, 256},
		{"mid-block start", 0, 16, 64, 8192, 9, 777, 256},
		{"grow empty file", 0, 16, 64, 0, 0, 640, 256},
		{"grow past eof mid-window", 0, 16, 64, 200, 0, 1000, 256},
		{"disp offset", 55, 32, 96, 4096, 2, 900, 512},
		{"adjacent segments", 0, 32, 32, 2048, 7, 500, 256},
		{"partial final frame", 0, 16, 64, 0, 0, 100, 256},
		{"segment longer than window", 0, 128, 256, 1000, 0, 1000, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := pattern(c.n, 101)
			sf := &fakeFile{data: pattern(c.fileSize, 7)}
			lf := &fakeFile{data: pattern(c.fileSize, 7)}
			var mu sync.Mutex
			gn, gerr := sieveWriteVec(&mu, sf, viewSegs(c.disp, c.blockLen, c.stride, c.off, c.n, data), c.window)
			wn, werr := loopVec(viewSegs(c.disp, c.blockLen, c.stride, c.off, c.n, data), lf.WriteAt, io.ErrShortWrite)
			if gn != wn || gerr != werr {
				t.Fatalf("sieved = (%d, %v), loop = (%d, %v)", gn, gerr, wn, werr)
			}
			if !bytes.Equal(sf.data, lf.data) {
				t.Fatalf("files differ: sieved %d bytes, loop %d bytes", len(sf.data), len(lf.data))
			}
		})
	}
}

// TestSieveWritePrefix: when a write-back fails or comes up short, the
// count is the prefix of segments, in order, that reached the file, and
// those bytes are there. Layout 16/64 under a 256-byte window makes runs
// of four segments spanning 208 bytes, 64 logical bytes each.
func TestSieveWritePrefix(t *testing.T) {
	boom := errors.New("injected device error")
	cases := []struct {
		name    string
		f       *fakeFile
		wantN   int
		wantErr error
	}{
		{"short write-back", &fakeFile{wcap: 100}, 32, io.ErrShortWrite},
		{"short mid-segment", &fakeFile{wcap: 72}, 24, io.ErrShortWrite},
		{"second write-back fails", &fakeFile{failWrite: 2, err: boom}, 64, boom},
		{"second rmw read fails", &fakeFile{failRead: 2, err: boom}, 64, boom},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.f.data = make([]byte, 8192)
			data := pattern(1000, 1)
			var mu sync.Mutex
			n, err := sieveWriteVec(&mu, c.f, viewSegs(0, 16, 64, 0, 1000, data), 256)
			if n != c.wantN || err != c.wantErr {
				t.Fatalf("write = (%d, %v), want (%d, %v)", n, err, c.wantN, c.wantErr)
			}
			got := make([]byte, n)
			if _, err := loopVec(viewSegs(0, 16, 64, 0, n, got), (&fakeFile{data: c.f.data}).ReadAt, io.EOF); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[:n]) {
				t.Fatal("the reported prefix is not in the file")
			}
		})
	}
}

// TestSievePoolBalanceUnderErrors: every run buffer is returned to the
// pool, on the success path and on every injected-failure path; a leaked
// buffer per RMW cycle would bleed the pool dry.
func TestSievePoolBalanceUnderErrors(t *testing.T) {
	boom := errors.New("injected device error")
	var mu sync.Mutex
	read := func(f *fakeFile) error {
		_, err := sieveReadVec(f, viewSegs(0, 16, 64, 0, 500, nil), 256)
		return err
	}
	write := func(f *fakeFile) error {
		_, err := sieveWriteVec(&mu, f, viewSegs(0, 16, 64, 0, 1000, pattern(1000, 42)), 256)
		return err
	}
	ops := []struct {
		name                string
		failRead, failWrite int
		op                  func(f *fakeFile) error
	}{
		{"read ok", 0, 0, read},
		{"read fails first window", 1, 0, read},
		{"read fails second window", 2, 0, read},
		{"write ok", 0, 0, write},
		{"write rmw read fails", 1, 0, write},
		{"write back fails", 0, 1, write},
		{"write back fails later window", 0, 2, write},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			gets0, puts0 := sievePool.Balance()
			f := &fakeFile{data: pattern(4096, 9), failRead: o.failRead, failWrite: o.failWrite, err: boom}
			if err := o.op(f); err != nil && !errors.Is(err, boom) {
				t.Fatalf("unexpected error: %v", err)
			}
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

// TestSieveAmplificationStats: sieving trades device bytes for device
// calls. For a vector over a strided layout whose stride divides the
// window, it makes at most ceil(span/window) device reads where the loop
// makes one per segment, moves the gap bytes with them, and a write pays
// one read and one write per run.
func TestSieveAmplificationStats(t *testing.T) {
	const window = 256
	for _, l := range []struct{ blockLen, stride int64 }{{16, 64}, {48, 64}} {
		t.Run(fmt.Sprintf("%dof%d", l.blockLen, l.stride), func(t *testing.T) {
			const n = 2048
			segs := viewSegs(0, l.blockLen, l.stride, 0, n, nil)
			span := segs[len(segs)-1].Off + int64(len(segs[len(segs)-1].Buf))
			runs := int((span + window - 1) / window)
			sf, lf := &fakeFile{data: pattern(8192, 5)}, &fakeFile{data: pattern(8192, 5)}
			if _, err := sieveReadVec(sf, segs, window); err != nil {
				t.Fatal(err)
			}
			if _, err := loopVec(segs, lf.ReadAt, io.EOF); err != nil {
				t.Fatal(err)
			}
			if sf.reads > runs || lf.reads != len(segs) {
				t.Fatalf("device reads: sieved %d (want <= %d), loop %d (want one per segment, %d)",
					sf.reads, runs, lf.reads, len(segs))
			}
			if want := n * int(l.stride/l.blockLen) * 3 / 4; sf.readBytes < want {
				t.Fatalf("sieved read moved %d device bytes for %d logical, want >= %d", sf.readBytes, n, want)
			}
			sf.reads = 0
			var mu sync.Mutex
			if _, err := sieveWriteVec(&mu, sf, viewSegs(0, l.blockLen, l.stride, 0, n, pattern(n, 1)), window); err != nil {
				t.Fatal(err)
			}
			if sf.reads > runs || sf.writes > runs || sf.wroteBytes < n*int(l.stride/l.blockLen)*3/4 {
				t.Fatalf("sieved write: %d reads, %d writes (want <= %d each), %d device bytes", sf.reads, sf.writes, runs, sf.wroteBytes)
			}
		})
	}
}

// TestSieveConcurrentRMW: writers sharing one ufs handle interleave their
// records in the same sieve window at the same time, and every record
// survives: the handle's mutex serializes the read-modify-write cycles.
func TestSieveConcurrentRMW(t *testing.T) {
	const writers, rec, nrec = 4, 512, 64
	f, err := UFSDriver{}.Open(filepath.Join(t.TempDir(), "f"), O_RDWR|O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + w)}, rec*nrec)
			segs := viewSegs(int64(w*rec), rec, writers*rec, 0, len(data), data)
			<-start
			if n, err := f.WriteAtVec(segs); err != nil || n != len(data) {
				t.Errorf("writer %d: WriteAtVec = %d, %v", w, n, err)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	phys := make([]byte, writers*rec*nrec)
	if n, err := f.ReadAt(phys, 0); err != nil || n != len(phys) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i, b := range phys {
		if want := byte('A' + i/rec%writers); b != want {
			t.Fatalf("byte %d = %c, want %c (record %d lost)", i, b, want, i/rec)
		}
	}
}
