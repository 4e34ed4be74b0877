package core

import (
	"fmt"
	"io"

	"semplar/internal/lzo"
)

// DefaultCompressBlock is the pipelined compression unit: the paper's
// experiment compresses and transmits consecutive 1 MB blocks.
const DefaultCompressBlock = 1 << 20

// CompressStats describes one compressed transfer.
type CompressStats struct {
	InputBytes  int64
	OutputBytes int64
	Blocks      int
}

// Ratio is input/output (>= 1 means compression helped).
func (s CompressStats) Ratio() float64 {
	if s.OutputBytes == 0 {
		return 1
	}
	return float64(s.InputBytes) / float64(s.OutputBytes)
}

// WriteCompressed compresses src into framed LZO blocks of blockSize and
// writes them consecutively to f starting at off.
//
// With eng == nil the loop is fully synchronous: compress a block, transmit
// it, repeat — compression sits on the critical path. With an engine, the
// write of block k is submitted asynchronously and block k+1 is compressed
// while k is in flight, the pipelining the paper's loop structure and
// asynchronous-call placement achieve (Section 7.3).
func WriteCompressed(f io.WriterAt, off int64, src []byte, blockSize int, eng *Engine) (CompressStats, error) {
	if blockSize <= 0 {
		blockSize = DefaultCompressBlock
	}
	var stats CompressStats
	var pending *Request
	tr := eng.Tracer()
	pos := off
	for start := 0; start < len(src) || (start == 0 && len(src) == 0); start += blockSize {
		if len(src) == 0 {
			break
		}
		end := start + blockSize
		if end > len(src) {
			end = len(src)
		}
		frame := lzo.EncodeBlock(src[start:end]) // compress (compute thread)
		if pending != nil {
			if _, err := pending.Wait(); err != nil {
				return stats, fmt.Errorf("core: compressed write: %w", err)
			}
		}
		writeAt := pos
		pos += int64(len(frame))
		stats.Blocks++
		stats.InputBytes += int64(end - start)
		stats.OutputBytes += int64(len(frame))
		tr.Count("lzo.compress_in", int64(end-start))
		tr.Count("lzo.compress_out", int64(len(frame)))
		if eng != nil {
			pending = eng.Submit(func() (int, error) {
				return f.WriteAt(frame, writeAt)
			})
		} else {
			if _, err := f.WriteAt(frame, writeAt); err != nil {
				return stats, fmt.Errorf("core: compressed write: %w", err)
			}
		}
	}
	if pending != nil {
		if _, err := pending.Wait(); err != nil {
			return stats, fmt.Errorf("core: compressed write: %w", err)
		}
	}
	return stats, nil
}

// ReadCompressed reads consecutive framed LZO blocks from f starting at
// off until end-of-file and returns the decompressed bytes. With an engine
// the read of block k+1 is prefetched while block k decompresses.
func ReadCompressed(f interface {
	io.ReaderAt
	Size() (int64, error)
}, off int64, eng *Engine) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	var out []byte
	tr := eng.Tracer()
	pos := off

	readFrame := func(at int64) ([]byte, error) {
		var hdr [lzo.BlockHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], at); err != nil && err != io.EOF {
			return nil, err
		}
		// Decode just the lengths by round-tripping through DecodeBlock
		// on the full frame; first fetch the payload length from the
		// header (bytes 8..12, big endian).
		compLen := int(uint32(hdr[8])<<24 | uint32(hdr[9])<<16 | uint32(hdr[10])<<8 | uint32(hdr[11]))
		frame := make([]byte, lzo.BlockHeaderSize+compLen)
		copy(frame, hdr[:])
		if compLen > 0 {
			if _, err := f.ReadAt(frame[lzo.BlockHeaderSize:], at+lzo.BlockHeaderSize); err != nil && err != io.EOF {
				return nil, err
			}
		}
		return frame, nil
	}

	var pending *Request
	var pendingFrame []byte
	fetch := func(at int64) {
		pendingFrame = nil
		pending = eng.Submit(func() (int, error) {
			fr, err := readFrame(at)
			pendingFrame = fr
			return len(fr), err
		})
	}

	var frame []byte
	if eng != nil && pos < size {
		fetch(pos)
	}
	for pos < size {
		if eng != nil {
			if _, err := pending.Wait(); err != nil {
				return nil, err
			}
			frame = pendingFrame
		} else {
			frame, err = readFrame(pos)
			if err != nil {
				return nil, err
			}
		}
		next := pos + int64(len(frame))
		if eng != nil && next < size {
			fetch(next)
		}
		orig, _, err := lzo.DecodeBlock(frame)
		if err != nil {
			return nil, fmt.Errorf("core: compressed read at %d: %w", pos, err)
		}
		tr.Count("lzo.decompress_in", int64(len(frame)))
		tr.Count("lzo.decompress_out", int64(len(orig)))
		out = append(out, orig...)
		pos = next
	}
	return out, nil
}
