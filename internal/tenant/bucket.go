package tenant

import (
	"sync"
	"sync/atomic"
	"time"
)

// Bucket is a token bucket driven by an injected clock. Tokens accrue at
// rate per second up to depth; a request of cost n either takes n tokens
// immediately or is refused with the wait until it would fit. There is no
// internal queueing or sleeping — refusal plus a retry-after hint is the
// whole contract, which keeps admission a pure function of (schedule,
// clock) and therefore exactly reproducible on a virtual clock. Compare
// netsim.Limiter, which models a link by *delaying* sends on a virtual
// transmission clock; an admission bucket must instead refuse, because the
// server cannot hold a flooding tenant's requests without letting it queue
// ahead of everyone else.
type Bucket struct {
	rate  float64 // tokens per second
	depth float64 // max tokens

	now func() time.Time

	mu     sync.Mutex
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu; last refill instant
}

// NewBucket returns a full bucket reading time from now.
func NewBucket(rate, depth float64, now func() time.Time) *Bucket {
	if depth < 1 {
		depth = 1
	}
	return &Bucket{rate: rate, depth: depth, now: now, tokens: depth, last: now()}
}

// refillLocked advances the bucket to t. Time going backwards (a virtual
// clock rewound between tests) is treated as no elapsed time rather than
// draining tokens.
func (b *Bucket) refillLocked(t time.Time) {
	//lint:allow guardedfield -- contract: only called with b.mu held
	tokens, last := b.tokens, b.last
	if t.After(last) {
		tokens += t.Sub(last).Seconds() * b.rate
		if tokens > b.depth {
			tokens = b.depth
		}
	}
	//lint:allow guardedfield -- contract: only called with b.mu held
	b.tokens, b.last = tokens, t
}

// Ask reports whether a request of cost n would be admitted at time t,
// without charging. On refusal it returns the wait until n tokens will
// have accrued (floored at 1ms so a retry-after hint is never zero).
func (b *Bucket) Ask(n float64, t time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(t)
	if b.tokens >= n {
		return true, 0
	}
	need := n
	if need > b.depth {
		// A cost larger than the bucket will never fit in one spike;
		// hint one full-depth drain so the client retries after the
		// bucket is as full as it gets.
		need = b.depth
	}
	wait := time.Duration((need - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// Take charges n tokens at time t, allowing the balance to go negative.
// Callers pair it with a successful Ask; the negative-balance tolerance
// makes the two-bucket charge in Tenant.Admit atomic-enough without a
// cross-bucket lock.
func (b *Bucket) Take(n float64, t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(t)
	b.tokens -= n
}

// Tokens reports the current balance at time t (test hook).
func (b *Bucket) Tokens(t time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(t)
	return b.tokens
}

// atomicCounter is a tiny wrapper so Tenant's counters are copy-proof and
// race-free without exporting sync/atomic details.
type atomicCounter struct{ v int64 }

func (c *atomicCounter) add(d int64) { atomic.AddInt64(&c.v, d) }
func (c *atomicCounter) load() int64 { return atomic.LoadInt64(&c.v) }
