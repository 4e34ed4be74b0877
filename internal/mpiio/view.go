package mpiio

import (
	"fmt"
	"sync"

	"semplar/internal/adio"
	"semplar/internal/trace"
)

// View is a simplified MPI_File_set_view: a byte displacement plus a
// strided filetype. The file appears to the rank as the concatenation of
// BlockLen-byte windows taken every Stride bytes starting at Disp — the
// classic pattern by which each rank of a row-partitioned array sees only
// its own interleaved records.
//
// The zero View is the identity (whole file, no displacement).
type View struct {
	// Disp is the displacement: logical offset 0 maps to physical Disp.
	Disp int64
	// BlockLen is the visible bytes per frame; 0 means contiguous.
	BlockLen int64
	// Stride is the physical distance between frame starts; must be
	// >= BlockLen when BlockLen > 0.
	Stride int64
}

// contiguous reports whether the view is a pure displacement.
func (v View) contiguous() bool { return v.BlockLen <= 0 }

// validate checks the view's invariants.
func (v View) validate() error {
	if v.Disp < 0 {
		return fmt.Errorf("mpiio: negative view displacement %d", v.Disp)
	}
	if v.BlockLen < 0 || v.Stride < 0 {
		return fmt.Errorf("mpiio: negative view extent")
	}
	if v.BlockLen > 0 && v.Stride < v.BlockLen {
		return fmt.Errorf("mpiio: view stride %d < block length %d", v.Stride, v.BlockLen)
	}
	return nil
}

// physical maps a logical offset to its physical file offset.
func (v View) physical(logical int64) int64 {
	if v.contiguous() {
		return v.Disp + logical
	}
	frame := logical / v.BlockLen
	within := logical % v.BlockLen
	return v.Disp + frame*v.Stride + within
}

// SetView installs a view on the handle and resets the individual file
// pointer, as MPI_File_set_view does. Collective accesses (WriteAtAll /
// ReadAtAll) honor the view: each rank's transfer is mapped through its own
// handle's view into physical extents before the two-phase exchange.
func (f *File) SetView(v View) error {
	if err := v.validate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.view = v
	f.fp = 0
	return nil
}

// CurrentView returns the handle's view.
func (f *File) CurrentView() View {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.view
}

// readPhys performs a read at a logical offset through the view.
func (f *File) readPhys(p []byte, off int64) (int, error) {
	return f.viewIO(p, off, false)
}

// writePhys performs a write at a logical offset through the view.
func (f *File) writePhys(p []byte, off int64) (int, error) {
	return f.viewIO(p, off, true)
}

// viewIO routes a logical transfer through the handle's view. Strided
// access is the driver's job (adio.VectorIO), so there are two outcomes:
//
//   - a contiguous view (including the BlockLen == Stride degenerate, whose
//     frames tile with no gaps), or an access inside one frame, is one
//     scalar driver op at its physical offset;
//   - every other strided access is one list-I/O call (listIO).
func (f *File) viewIO(p []byte, off int64, write bool) (int, error) {
	f.mu.Lock()
	v := f.view
	f.mu.Unlock()
	if !v.contiguous() && v.BlockLen != v.Stride && len(p) > 0 &&
		(off+int64(len(p))-1)/v.BlockLen > off/v.BlockLen {
		return f.listIO(v, p, off, write)
	}
	var n int
	var err error
	if write {
		n, err = f.inner.WriteAt(p, v.physical(off))
	} else {
		n, err = f.inner.ReadAt(p, v.physical(off))
	}
	f.counters.recordPhys(!write, n)
	return n, err
}

// vecLists recycles listIO's segment lists, which no driver keeps past the
// call; a list per strided access would otherwise cost an allocation that
// the garbage collector must scan.
var vecLists = sync.Pool{New: func() any { return new([]adio.Vec) }}

// listIO moves a strided transfer as one offset/length vector, cut on frame
// boundaries, through the driver's list I/O. The driver decides how to
// serve it; prefix-and-error semantics are those of adio.VectorIO.
func (f *File) listIO(v View, p []byte, off int64, write bool) (int, error) {
	list := vecLists.Get().(*[]adio.Vec)
	vecs := (*list)[:0]
	for rest, logical := p, off; len(rest) > 0; {
		take := min(v.BlockLen-logical%v.BlockLen, int64(len(rest)))
		vecs = append(vecs, adio.Vec{Off: v.physical(logical), Buf: rest[:take]})
		rest = rest[take:]
		logical += take
	}
	sp := f.tracer.Begin("mpiio", "listio", f.lane)
	var n int
	var err error
	if write {
		n, err = f.inner.WriteAtVec(vecs)
	} else {
		n, err = f.inner.ReadAtVec(vecs)
	}
	sp.End(trace.Int("n", int64(n)), trace.Int("segs", int64(len(vecs))))
	f.counters.recordPhys(!write, n)
	clear(vecs) // drop the references to p before the list is reused
	*list = vecs
	vecLists.Put(list)
	return n, err
}
