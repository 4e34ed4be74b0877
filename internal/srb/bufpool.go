package srb

import "semplar/internal/bufpool"

// Payload buffer pooling. Every request and response that carries data used
// to pay one make([]byte, dataLen) on the read side of the wire — at small
// op sizes under pipelining that allocation (and the GC pressure behind it)
// dominates the per-op cost. The wire parsers allocate from the pool and
// the server's per-request loop releases. The client's data replies take
// no buffer at all: readLoop reads them straight into the caller's slices.
// Paths that retain decoded data (List, Stat, GetAttr — all of which copy
// into strings) simply never release.
//
// Each class is a power of two plus a one-entry table, so a contiguous
// write of a power-of-two size, which travels behind its table, takes the
// class a read of that size takes. The largest class is maxReqData: no
// wire payload exceeds it.
var payloadPool = bufpool.New(4<<10+oneEntryTable, 64<<10+oneEntryTable, 1<<20+oneEntryTable, maxReqData)

// getBuf and putBuf are the package's pool entry points; the pooluse lint
// rule tracks buffer ownership by these names.
func getBuf(n int) []byte { return payloadPool.Get(n) }
func putBuf(b []byte)     { payloadPool.Put(b) }
