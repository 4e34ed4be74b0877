package adio

import (
	"io"
	"sync"

	"semplar/internal/bufpool"
)

// Data sieving is how ufs serves list I/O: the fast path of Thakur, Gropp
// and Lusk's "Data Sieving and Collective I/O in ROMIO" for a file that can
// only take contiguous requests. The sorted segment list is cut into runs
// whose span fits one window. Each run moves with one contiguous read, from
// which a read copies its segments out and into which a write scatters its
// segments before writing the whole run back. A run of one segment is a
// plain ReadAt/WriteAt. One device call per window instead of one per
// segment; the price is the gap bytes between segments, which ride along.
//
// Concurrency: a write's read-modify-write (RMW) cycle rewrites every byte
// of its run, gap bytes included. Cycles issued through one handle are
// serialized by that handle's mutex, but a concurrent writer to other bytes
// of the same run through a different handle can be silently undone. As in
// ROMIO, the contract on ufs handles is one writer per window-sized region.

// sieveWindow bounds the span of one run.
const sieveWindow = 512 << 10

// Run buffers are pooled so an RMW cycle does not pay a window-sized
// allocation. Every buffer is released before its call returns, on every
// error path too, so tests diff the pool's Balance around injected failures.
var sievePool = bufpool.New(64<<10, sieveWindow)

// getBuf and putBuf are the package's pool entry points; the pooluse lint
// rule tracks buffer ownership by these names.
func getBuf(n int) []byte { return sievePool.Get(n) }
func putBuf(b []byte)     { sievePool.Put(b) }

// sieveReadVec serves ReadAtVec from r through runs of at most window bytes.
// The result matches loopVec, except that a device error ends the
// transfer at the start of the failing run. Holes past EOF inside a run
// read as absent, not as zeros.
func sieveReadVec(r io.ReaderAt, segs []Vec, window int64) (int, error) {
	return eachRun(segs, window, func(run []Vec, span int64) (int, error) {
		if len(run) == 1 {
			return loopVec(run, r.ReadAt, io.EOF)
		}
		start := run[0].Off
		buf := getBuf(int(span))
		defer putBuf(buf)
		n, err := r.ReadAt(buf, start)
		if err != nil && err != io.EOF {
			return 0, err
		}
		total := 0
		for _, s := range run {
			got := copy(s.Buf, buf[min(s.Off-start, int64(n)):n])
			total += got
			if got < len(s.Buf) {
				return total, io.EOF
			}
		}
		return total, nil
	})
}

// sieveWriteVec serves WriteAtVec on f through RMW runs of at most window
// bytes, each cycle under mu. Gap bytes inside the file are written back
// unchanged; gap bytes past EOF are written as zeros, exactly as the holes
// of per-segment writes read back. On a failed or short write-back the
// count is the prefix of segments, in order, inside the bytes written.
func sieveWriteVec(mu *sync.Mutex, f interface {
	io.ReaderAt
	io.WriterAt
}, segs []Vec, window int64) (int, error) {
	return eachRun(segs, window, func(run []Vec, span int64) (int, error) {
		if len(run) == 1 {
			return loopVec(run, f.WriteAt, io.ErrShortWrite)
		}
		start := run[0].Off
		buf := getBuf(int(span))
		defer putBuf(buf)
		mu.Lock()
		defer mu.Unlock()
		//lint:allow lockheld -- mu IS the RMW serialization point: the run must not change between its read and write-back
		n, err := f.ReadAt(buf, start)
		if err != nil && err != io.EOF {
			return 0, err
		}
		clear(buf[n:])
		for _, s := range run {
			copy(buf[s.Off-start:], s.Buf)
		}
		//lint:allow lockheld -- mu IS the RMW serialization point: the run must not change between its read and write-back
		wn, err := f.WriteAt(buf, start)
		if err == nil && wn < len(buf) {
			err = io.ErrShortWrite
		}
		total := 0
		for _, s := range run {
			got := min(len(s.Buf), max(0, wn-int(s.Off-start)))
			total += got
			if got < len(s.Buf) {
				break
			}
		}
		return total, err
	})
}

// eachRun cuts segs into runs and moves each through move, summing the
// counts; the first error ends the transfer with the prefix moved so far.
// A run is the longest prefix of the remaining segments that ascends
// without overlap and spans at most window bytes; it always holds at least
// one segment, however long.
func eachRun(segs []Vec, window int64, move func(run []Vec, span int64) (int, error)) (int, error) {
	total := 0
	for len(segs) > 0 {
		start := segs[0].Off
		end := start + int64(len(segs[0].Buf))
		k := 1
		for ; k < len(segs); k++ {
			next := segs[k].Off + int64(len(segs[k].Buf))
			if segs[k].Off < end || next-start > window {
				break
			}
			end = next
		}
		n, err := move(segs[:k], end-start)
		total += n
		if err != nil {
			return total, err
		}
		segs = segs[k:]
	}
	return total, nil
}
