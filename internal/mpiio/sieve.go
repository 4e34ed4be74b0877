package mpiio

import (
	"fmt"
	"io"
	"strconv"

	"semplar/internal/adio"
	"semplar/internal/bufpool"
	"semplar/internal/trace"
)

// Data sieving and list I/O — the noncontiguous-access fast paths of
// Thakur/Gropp/Lusk's "Data Sieving and Collective I/O in ROMIO", grafted
// under the paper's async engine. A strided view turns every frame into a
// separate contiguous piece; the naive path (naiveViewIO) pays one driver
// round trip per piece, which over a WAN link is ruinous. Two alternatives:
//
//   - Data sieving: read one large contiguous window covering many frames,
//     then extract (reads) or scatter-and-rewrite (writes) the pieces in
//     memory. One round trip moves window bytes instead of piece bytes —
//     amplification traded for latency. Writes are read-modify-write over
//     the window, so gap bytes between frames survive verbatim.
//
//   - List I/O: ship the (offset, length) vector to the driver and let it
//     move exactly the requested bytes in few round trips (opReadv /
//     opWritev on SRBFS). No amplification and no read-modify-write.
//
// Dispatch follows the driver's capability, not the view's density: list I/O
// moves the same pieces as a sieve window in the same round trip without
// the window's gap bytes, and a write needs no read first, so every strided
// access goes to list I/O when the driver implements adio.VectorIO. Data
// sieving is the fast path only for drivers that cannot take a
// noncontiguous request (ufs), which is the case Thakur et al. built it for.
//
// Concurrency: sieved writes lock the window per handle (f.sieveMu), which
// serializes RMW cycles issued through one *File. Like ROMIO, correctness
// against OTHER writers is the application's problem: the RMW cycle rewrites
// every byte of the window, so a concurrent writer to unrelated bytes of the
// same window through a different handle can be silently undone. On drivers
// without adio.VectorIO the documented contract is therefore single writer
// per window-sized region; list I/O writes only the requested bytes and
// carries no such rule.

// defaultSieveBufSize is the sieve window bound when no sieve_buf_size hint
// is given.
const defaultSieveBufSize = 512 << 10

// sieveConfig is the parsed form of the noncontiguous-access hints.
type sieveConfig struct {
	sieve   bool  // data sieving enabled
	bufSize int64 // sieve window bound, bytes
}

// parseSieveHints reads the noncontiguous-access hints, applying defaults.
func parseSieveHints(hints adio.Hints) (sieveConfig, error) {
	cfg := sieveConfig{sieve: true, bufSize: defaultSieveBufSize}
	switch v := hints.Get("sieve", "on"); v {
	case "on":
	case "off":
		cfg.sieve = false
	default:
		return cfg, fmt.Errorf("mpiio: bad sieve hint %q", v)
	}
	if v := hints.Get("sieve_buf_size", ""); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("mpiio: bad sieve_buf_size hint %q", v)
		}
		cfg.bufSize = n
	}
	return cfg, nil
}

// Sieve window buffers are pooled: RMW cycles at WAN latency leave windows
// alive for a round trip, and without pooling each cycle pays a
// window-sized allocation. The class ladder tops out above the default
// window so the common case always pools. Every window is released before
// its viewIO call returns — including every error path — so tests diff the
// pool's Balance around injected failures.
var sievePool = bufpool.New(64<<10, defaultSieveBufSize, 2<<20)

// getBuf and putBuf are the package's pool entry points; the pooluse lint
// rule tracks buffer ownership by these names.
func getBuf(n int) []byte { return sievePool.Get(n) }
func putBuf(b []byte)     { sievePool.Put(b) }

// sieveWindow describes one sieve window: a run of k frames (the last
// possibly partial) covering `take` logical bytes starting at `logical`,
// occupying [physStart, physStart+physLen) in the file.
//
// The window math: for a view (B = BlockLen, S = Stride), a logical offset L
// sits `within` = L mod B bytes into frame L/B. A window of k frames spans
// (k-1)*S + B - within physical bytes at most (less when the final frame is
// cut short by the transfer end), so the largest k the sieve buffer admits
// is 1 + (bufSize - (B - within)) / S. The physical end is the mapping of
// the window's last logical byte plus one — the window never overshoots the
// final piece, so sieved writes grow the file exactly as naive writes do.
type sieveWindow struct {
	logical   int64 // first logical byte
	take      int64 // logical bytes covered
	physStart int64
	physLen   int64
}

// nextWindow computes the sieve window starting at logical offset `logical`
// with `rem` logical bytes left to move. ok is false when the buffer cannot
// hold at least two frames — then sieving degenerates to the naive loop.
func nextWindow(v View, logical, rem, bufSize int64) (sieveWindow, bool) {
	within := logical % v.BlockLen
	framesNeeded := (within + rem + v.BlockLen - 1) / v.BlockLen
	headroom := bufSize - (v.BlockLen - within)
	if headroom < 0 {
		return sieveWindow{}, false
	}
	k := headroom/v.Stride + 1
	if k > framesNeeded {
		k = framesNeeded
	}
	if k < 2 {
		return sieveWindow{}, false
	}
	take := k*v.BlockLen - within
	if take > rem {
		take = rem
	}
	physStart := v.physical(logical)
	physLen := v.physical(logical+take-1) + 1 - physStart
	return sieveWindow{logical: logical, take: take, physStart: physStart, physLen: physLen}, true
}

// forEachPiece walks the contiguous pieces of a window in ascending order,
// calling fn with each piece's offset into the window buffer (bufOff), its
// offset into the logical transfer relative to the window start (lgOff), and
// its length. fn returns false to stop early.
func (w sieveWindow) forEachPiece(v View, fn func(bufOff, lgOff, n int64) bool) {
	var lg int64
	for lg < w.take {
		logical := w.logical + lg
		within := logical % v.BlockLen
		n := v.BlockLen - within
		if n > w.take-lg {
			n = w.take - lg
		}
		bufOff := v.physical(logical) - w.physStart
		if !fn(bufOff, lg, n) {
			return
		}
		lg += n
	}
}

// sievedRead moves a strided read through sieve windows: one large
// contiguous driver read per window, pieces extracted in memory. Short
// window reads behave like the naive path: a piece that comes up short ends
// the transfer with io.EOF and the contiguous logical prefix; holes past
// the driver's EOF inside the window read as absent, not zeros.
func (f *File) sievedRead(v View, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		w, ok := nextWindow(v, off+int64(total), int64(len(p)-total), f.sieve.bufSize)
		if !ok {
			n, err := f.naiveViewIO(v, p[total:], off+int64(total), false)
			return total + n, err
		}
		buf := getBuf(int(w.physLen))
		sp := f.tracer.Begin("mpiio", "sieve.window", f.lane)
		n, rerr := f.inner.ReadAt(buf[:w.physLen], w.physStart)
		sp.End(trace.Int("phys", w.physLen), trace.Int("logical", w.take))
		f.counters.recordPhys(true, n)
		if rerr != nil && rerr != io.EOF {
			putBuf(buf)
			return total, rerr
		}
		short := false
		w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
			avail := int64(n) - bufOff
			if avail > pn {
				avail = pn
			}
			if avail < 0 {
				avail = 0
			}
			copy(p[total:], buf[bufOff:bufOff+avail])
			total += int(avail)
			if avail < pn {
				short = true
				return false
			}
			return true
		})
		putBuf(buf)
		if short {
			return total, io.EOF
		}
	}
	return total, nil
}

// sievedWrite moves a strided write through read-modify-write sieve
// windows: read the window, scatter the new pieces over it, write it back
// whole. Gap bytes between frames ride along unchanged; gap bytes beyond
// the driver's EOF are zero-filled, exactly as naive per-piece writes would
// leave them. The per-handle window lock serializes RMW cycles so two
// strided writes through this handle cannot interleave their
// read-and-write-back halves.
func (f *File) sievedWrite(v View, p []byte, off int64) (int, error) {
	f.sieveMu.Lock()
	defer f.sieveMu.Unlock()
	total := 0
	for total < len(p) {
		w, ok := nextWindow(v, off+int64(total), int64(len(p)-total), f.sieve.bufSize)
		if !ok {
			n, err := f.naiveViewIO(v, p[total:], off+int64(total), true)
			return total + n, err
		}
		buf := getBuf(int(w.physLen))
		sp := f.tracer.Begin("mpiio", "sieve.window", f.lane)
		//lint:allow lockheld -- f.sieveMu IS the RMW serialization point: the window must not change between its read and write-back
		n, rerr := f.inner.ReadAt(buf[:w.physLen], w.physStart)
		f.counters.recordPhys(true, n)
		if rerr != nil && rerr != io.EOF {
			putBuf(buf)
			sp.End(trace.Int("phys", w.physLen), trace.Int("logical", int64(0)))
			return total, rerr
		}
		for i := int64(n); i < w.physLen; i++ {
			buf[i] = 0 // gap bytes past EOF read as zeros, like naive writes leave them
		}
		w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
			copy(buf[bufOff:bufOff+pn], p[int64(total)+lgOff:])
			return true
		})
		//lint:allow lockheld -- f.sieveMu IS the RMW serialization point: the window must not change between its read and write-back
		wn, werr := f.inner.WriteAt(buf[:w.physLen], w.physStart)
		f.counters.recordPhys(false, wn)
		sp.End(trace.Int("phys", w.physLen), trace.Int("logical", w.take))
		putBuf(buf)
		if werr != nil || int64(wn) < w.physLen {
			// Count the logical prefix confirmed on disk: pieces wholly
			// below physStart+wn.
			acc := int64(0)
			w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
				got := int64(wn) - bufOff
				if got > pn {
					got = pn
				}
				if got < 0 {
					got = 0
				}
				acc += got
				return got == pn
			})
			total += int(acc)
			if werr == nil {
				werr = io.ErrShortWrite
			}
			return total, werr
		}
		total += int(w.take)
	}
	return total, nil
}

// listIO moves a strided transfer as one offset/length vector through the
// driver's VectorIO fast path: exactly the requested bytes, few round
// trips, no read-modify-write. Prefix-and-error semantics match viewIO.
func (f *File) listIO(vio adio.VectorIO, v View, p []byte, off int64, write bool) (int, error) {
	vecs := make([]adio.Vec, 0, len(p)/int(v.BlockLen)+2)
	rest := p
	logical := off
	for len(rest) > 0 {
		within := logical % v.BlockLen
		take := v.BlockLen - within
		if take > int64(len(rest)) {
			take = int64(len(rest))
		}
		vecs = append(vecs, adio.Vec{Off: v.physical(logical), Buf: rest[:take]})
		rest = rest[take:]
		logical += take
	}
	sp := f.tracer.Begin("mpiio", "listio", f.lane)
	var n int
	var err error
	if write {
		n, err = vio.WriteAtVec(vecs)
	} else {
		n, err = vio.ReadAtVec(vecs)
	}
	sp.End(trace.Int("n", int64(n)), trace.Int("segs", int64(len(vecs))))
	f.counters.recordPhys(!write, n) // list I/O moves exactly the logical bytes
	return n, err
}
