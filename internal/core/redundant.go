package core

import (
	"io"
)

// ReadAtRedundant implements the redundancy use of striping sketched in
// Section 4.1: the same read is issued concurrently on every TCP stream
// and the first completed result is accepted, the others ignored. On paths
// with latency variation (or a stalled stream) this trades bandwidth for
// lower and more predictable read latency.
func (f *srbFile) ReadAtRedundant(p []byte, off int64) (int, error) {
	if len(f.streams) == 1 {
		return f.rw(f.streams[0], false, p, off)
	}
	type result struct {
		n   int
		err error
		buf []byte
	}
	// Buffered so stragglers can complete and be garbage collected
	// without leaking goroutines.
	ch := make(chan result, len(f.streams))
	for _, s := range f.streams {
		go func(s *stream) {
			buf := make([]byte, len(p))
			n, err := f.rw(s, false, buf, off)
			ch <- result{n: n, err: err, buf: buf}
		}(s)
	}
	var lastErr error
	for range f.streams {
		r := <-ch
		if r.err == nil || r.err == io.EOF {
			copy(p, r.buf[:r.n])
			return r.n, r.err
		}
		lastErr = r.err
	}
	return 0, lastErr
}

// RedundantReader is implemented by files that can satisfy a read from
// whichever of several redundant streams answers first.
type RedundantReader interface {
	ReadAtRedundant(p []byte, off int64) (int, error)
}

var _ RedundantReader = (*srbFile)(nil)
