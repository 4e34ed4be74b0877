// Package bufpool is the size-classed byte-buffer pool shared by the wire
// layer (srb payload buffers) and the ADIO layer (the run buffers of adio's
// ufs data sieve). Each user keeps its own Pool — class ladders and balance
// counters stay separate — behind package-local getBuf/putBuf, the names
// the pooluse lint rule keys its ownership tracking on.
//
// Ownership discipline: a buffer obtained from Get is owned by exactly one
// party at a time and may be released at most once, only after the last
// read of its contents. Paths that retain a buffer simply never release it
// and the GC reclaims it as it would any allocation.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Pool hands out buffers from a fixed ladder of capacity classes.
//
// A sync.Pool holds a buffer as a *[]byte, so that storing it takes no
// allocation of its own. The boxes travel too: Get empties the one its
// buffer came in and parks it in holders, and Put refills a parked box
// instead of allocating a new one, so a Get/Put pair allocates nothing.
type Pool struct {
	classes    []int
	pools      []sync.Pool
	holders    sync.Pool // empty *[]byte boxes
	gets, puts atomic.Int64
}

// New returns a pool over the given capacities, which must ascend.
func New(classes ...int) *Pool {
	p := &Pool{classes: classes, pools: make([]sync.Pool, len(classes))}
	for i, size := range classes {
		size := size
		p.pools[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
	return p
}

// Get returns a buffer of length n backed by the smallest class that fits;
// n above the largest class falls back to a plain allocation.
func (p *Pool) Get(n int) []byte {
	for i, size := range p.classes {
		if n <= size {
			h := p.pools[i].Get().(*[]byte)
			b := *h
			*h = nil
			p.holders.Put(h)
			p.gets.Add(1)
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Put returns a buffer to its class. Any buffer whose capacity matches a
// class exactly is accepted — a non-pooled allocation that happens to be
// class-sized is recycled too, harmless since the caller asserts nothing
// else references it — and every other buffer (nil included) is ignored.
// The caller must not touch b afterwards.
func (p *Pool) Put(b []byte) {
	c := cap(b)
	for i, size := range p.classes {
		if c == size {
			h, _ := p.holders.Get().(*[]byte)
			if h == nil {
				h = new([]byte)
			}
			*h = b[:size]
			p.pools[i].Put(h)
			p.puts.Add(1)
			return
		}
	}
}

// Balance reports pooled hand-outs and returns since the pool was made. On
// an idle system the two converge (buffers legally parked in flight, or
// retained for the GC, account for any gap); tests diff them around
// leak-prone error paths, where every get must be matched.
func (p *Pool) Balance() (gets, puts int64) {
	return p.gets.Load(), p.puts.Load()
}
