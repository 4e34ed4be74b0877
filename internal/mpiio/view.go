package mpiio

import (
	"fmt"
	"io"

	"semplar/internal/adio"
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

// viewIO routes a logical transfer through the handle's view, picking the
// cheapest correct strategy from what the driver can do:
//
//   - contiguous views (including the BlockLen == Stride degenerate, whose
//     frames tile with no gaps) become one driver op at Disp+off;
//   - strided accesses spanning at least two frames go to list I/O, at any
//     density, when the driver supports adio.VectorIO;
//   - on other drivers they are data-sieved;
//   - everything else (single-frame accesses, sieving disabled, windows too
//     big for the sieve buffer) falls back to the naive per-piece loop.
func (f *File) viewIO(p []byte, off int64, write bool) (int, error) {
	f.mu.Lock()
	v := f.view
	f.mu.Unlock()
	if v.contiguous() || v.BlockLen == v.Stride {
		var n int
		var err error
		if write {
			n, err = f.inner.WriteAt(p, v.Disp+off)
		} else {
			n, err = f.inner.ReadAt(p, v.Disp+off)
		}
		f.counters.recordPhys(!write, n)
		return n, err
	}
	if len(p) > 0 && (off+int64(len(p))-1)/v.BlockLen > off/v.BlockLen {
		if vio, ok := f.inner.(adio.VectorIO); ok {
			return f.listIO(vio, v, p, off, write)
		}
		if f.sieve.sieve {
			if write {
				return f.sievedWrite(v, p, off)
			}
			return f.sievedRead(v, p, off)
		}
	}
	return f.naiveViewIO(v, p, off, write)
}

// naiveViewIO splits the logical range on frame boundaries and pays one
// driver op per contiguous piece — the pre-sieving behavior, kept as the
// fallback and as the semantic reference the fast paths must match.
func (f *File) naiveViewIO(v View, p []byte, off int64, write bool) (int, error) {
	total := 0
	for len(p) > 0 {
		logical := off + int64(total)
		within := logical % v.BlockLen
		take := v.BlockLen - within
		if take > int64(len(p)) {
			take = int64(len(p))
		}
		phys := v.physical(logical)
		var n int
		var err error
		if write {
			n, err = f.inner.WriteAt(p[:take], phys)
		} else {
			n, err = f.inner.ReadAt(p[:take], phys)
		}
		f.counters.recordPhys(!write, n)
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
