// Package netsim emulates the wide-area network paths used in the paper's
// evaluation: the transoceanic DAS-2 link, the NAT-fronted OSC P4 cluster
// and the NCSA TeraGrid backbone.
//
// The emulation is deliberately mechanistic rather than statistical: bytes
// really flow through shaped in-memory pipes, so the asynchronous engine
// under test overlaps real waiting with real computation. Three mechanisms
// from the paper are modeled explicitly:
//
//   - per-TCP-stream throughput is capped at window/RTT (the reason the
//     paper's split-TCP optimization pays off),
//   - shared capacities (WAN path up/down, NAT host, server NIC) are token
//     buckets drawn by every stream that crosses them,
//   - each node has an I/O bus shared by the MPI interconnect and the
//     Ethernet NIC, reproducing the bus-contention result of Section 7.1.
//
// Waits block on a precise kernel timer where the host has one (see
// waitUntil) and are paced (see Pacer), so wake-up delay is not charged as
// link time. The storage device model (internal/storage) meters its I/O
// through the same Limiter and Pacer.
package netsim

import (
	"sync"
	"time"
)

// Limiter paces byte flow at a fixed rate using a virtual transmission
// clock: each reservation schedules its bytes after all previously reserved
// bytes, exactly like frames serialized onto a link. A nil Limiter or a
// rate <= 0 imposes no delay.
type Limiter struct {
	mu   sync.Mutex
	rate float64   // bytes per second; immutable after NewLimiter
	next time.Time // guarded by mu
}

// NewLimiter returns a limiter that serializes traffic at bytesPerSec.
// bytesPerSec <= 0 means unlimited.
func NewLimiter(bytesPerSec float64) *Limiter {
	return &Limiter{rate: bytesPerSec}
}

// Rate reports the configured rate in bytes per second (0 = unlimited).
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return l.rate
}

// Reserve accounts for n bytes and returns how long the caller must wait,
// measured from now, until the transmission of those bytes completes.
func (l *Limiter) Reserve(n int, now time.Time) time.Duration {
	if l == nil || l.rate <= 0 || n <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next.Before(now) {
		l.next = now
	}
	l.next = l.next.Add(time.Duration(float64(n) / l.rate * float64(time.Second)))
	return l.next.Sub(now)
}

// Wait charges a fixed delay lat and then n bytes, reserved on p's
// schedule, and waits once until both have passed.
func (l *Limiter) Wait(p *Pacer, lat time.Duration, n int) {
	start := p.start().Add(lat)
	p.waitUntil(start.Add(l.Reserve(n, start)))
}

// Stage is one serialization point on a transfer path: a link, a shared
// bottleneck, or a bus port.
type Stage interface {
	// Reserve accounts for n bytes and returns the wait until their
	// transmission through this stage completes.
	Reserve(n int, now time.Time) time.Duration
}

// reserveAll reserves n bytes on every stage and returns the longest
// wait. Reserving on all of them (rather than only the slowest) keeps every
// account current, which is how serial store-and-forward stages behave.
func reserveAll(ls []Stage, n int, now time.Time) time.Duration {
	var wait time.Duration
	for _, l := range ls {
		if d := l.Reserve(n, now); d > wait {
			wait = d
		}
	}
	return wait
}

// Traffic classes crossing a node's I/O bus.
const (
	BusClassIO  = 0 // Ethernet NIC: remote I/O traffic
	BusClassMPI = 1 // interconnect NIC: MPI traffic
)

// busContentionWindow is how recently the other class must have been
// active for a transfer to be considered concurrent. It must exceed the
// chunk cadence of a window-limited stream, or a paced transfer looks
// idle between its own chunks.
const busContentionWindow = 50 * time.Millisecond

// Bus models a node's local I/O bus. Both the MPI interconnect NIC and the
// Ethernet NIC sit on it, so overlapping MPI communication with remote I/O
// contends here even when the two networks themselves are separate — the
// counter-intuitive effect discussed in Section 7.1 of the paper.
//
// Real buses degrade under concurrent masters (arbitration, interrupts),
// so when both classes are active within a short window each byte is
// charged (1+Penalty)x. With Penalty = 0 sharing is fair and overlapping
// never loses to serializing; the paper's observed behavior needs the
// arbitration cost.
type Bus struct {
	lim     *Limiter
	penalty float64

	mu         sync.Mutex
	lastActive [2]time.Time // guarded by mu
}

// NewBus returns a bus with the given capacity in bytes per second.
// bytesPerSec <= 0 disables contention (infinite bus).
func NewBus(bytesPerSec float64) *Bus {
	return NewBusPenalty(bytesPerSec, 1.0)
}

// NewBusPenalty returns a bus with an explicit arbitration penalty: the
// fractional extra cost per byte while both traffic classes are active.
func NewBusPenalty(bytesPerSec, penalty float64) *Bus {
	if bytesPerSec <= 0 {
		return &Bus{}
	}
	return &Bus{lim: NewLimiter(bytesPerSec), penalty: penalty}
}

// Infinite reports whether the bus imposes no constraint.
func (b *Bus) Infinite() bool { return b == nil || b.lim == nil }

// Stage returns the bus port for one traffic class, for inclusion in a
// transfer path. Returns nil when the bus is infinite.
func (b *Bus) Stage(class int) Stage {
	if b.Infinite() {
		return nil
	}
	return &busPort{bus: b, class: class}
}

// reserve charges n bytes for the given class, applying the arbitration
// penalty when the other class is concurrently active.
func (b *Bus) reserve(class, n int, now time.Time) time.Duration {
	if b.Infinite() {
		return 0
	}
	b.mu.Lock()
	b.lastActive[class] = now
	contended := now.Sub(b.lastActive[1-class]) < busContentionWindow
	b.mu.Unlock()
	if contended && b.penalty > 0 {
		n = int(float64(n) * (1 + b.penalty))
	}
	return b.lim.Reserve(n, now)
}

type busPort struct {
	bus   *Bus
	class int
}

func (p *busPort) Reserve(n int, now time.Time) time.Duration {
	return p.bus.reserve(p.class, n, now)
}
