package mpiio

import (
	"sync/atomic"
	"time"
)

// FileStats are cumulative per-handle I/O counters — the instrumentation
// the paper's measurements rely on (phase durations, bytes moved, blocking
// vs nonblocking call mix).
type FileStats struct {
	Reads        int64
	Writes       int64
	AsyncReads   int64
	AsyncWrites  int64
	BytesRead    int64
	BytesWritten int64
	// PhysBytesRead/PhysBytesWritten count bytes handed to and from the
	// driver, as opposed to the logical BytesRead/BytesWritten the
	// application asked for. On independent access a view maps every
	// logical byte to one physical byte, so the two agree; a collective
	// call counts the driver traffic of this rank as an aggregator.
	// Amplification below the driver interface is invisible here: ufs
	// sieves inside its own list I/O, reading and rewriting the gaps
	// between view frames.
	PhysBytesRead    int64
	PhysBytesWritten int64
	// BlockingTime is time spent inside blocking calls (Read/Write
	// variants and Waits issued through WaitFor).
	BlockingTime time.Duration
}

// fileCounters is the internal atomic mirror of FileStats.
type fileCounters struct {
	reads, writes                   atomic.Int64
	asyncReads, asyncWrites         atomic.Int64
	bytesRead, bytesWritten         atomic.Int64
	physBytesRead, physBytesWritten atomic.Int64
	blockingNanos                   atomic.Int64
}

func (c *fileCounters) snapshot() FileStats {
	return FileStats{
		Reads:            c.reads.Load(),
		Writes:           c.writes.Load(),
		AsyncReads:       c.asyncReads.Load(),
		AsyncWrites:      c.asyncWrites.Load(),
		BytesRead:        c.bytesRead.Load(),
		BytesWritten:     c.bytesWritten.Load(),
		PhysBytesRead:    c.physBytesRead.Load(),
		PhysBytesWritten: c.physBytesWritten.Load(),
		BlockingTime:     time.Duration(c.blockingNanos.Load()),
	}
}

// recordPhys accounts bytes moved through the driver.
func (c *fileCounters) recordPhys(read bool, n int) {
	if read {
		c.physBytesRead.Add(int64(n))
	} else {
		c.physBytesWritten.Add(int64(n))
	}
}

// recordBlocking accounts one blocking call.
func (c *fileCounters) recordBlocking(start time.Time, read bool, n int) {
	c.blockingNanos.Add(int64(time.Since(start)))
	if read {
		c.reads.Add(1)
		c.bytesRead.Add(int64(n))
	} else {
		c.writes.Add(1)
		c.bytesWritten.Add(int64(n))
	}
}

// recordAsync accounts one completed nonblocking operation.
func (c *fileCounters) recordAsync(read bool, n int) {
	if read {
		c.asyncReads.Add(1)
		c.bytesRead.Add(int64(n))
	} else {
		c.asyncWrites.Add(1)
		c.bytesWritten.Add(int64(n))
	}
}

// Stats returns a snapshot of the handle's I/O counters.
func (f *File) Stats() FileStats { return f.counters.snapshot() }
