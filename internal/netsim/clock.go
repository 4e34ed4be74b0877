package netsim

import "time"

// The simulator models elapsed time with the host clock: limiters compute
// how long a transfer would take and the pipes, the MPI fabric and the
// storage device model (internal/storage, through Pacer) wait it out.
// Every wall clock read and every wait in the package funnels through
// this file so that (a) the determinism analyzer (semplarvet) can ban
// stray time.Now/time.Sleep elsewhere in the package, and (b) a future
// virtual clock only has to replace these functions. Randomness is handled
// the same way: all jitter draws come from per-connection seeded
// *rand.Rand sources (see Jitter), never the global math/rand state.

// now returns the simulator's current time.
func now() time.Time { return time.Now() }

// waitUntil blocks the calling goroutine until the instant at; an instant
// already past returns at once. It never returns early. An idle Go process
// on Linux parks its timers in epoll with a whole-millisecond timeout, so
// time.Sleep wakes up to ~1 ms late; waitUntil instead blocks on a kernel
// timer (waitPrecise, clock_linux.go), which wakes it within tens of µs.
// Where that is unavailable it falls back to sleepUntil.
func waitUntil(at time.Time) {
	d := at.Sub(now())
	if d <= 0 {
		return
	}
	if !waitPrecise(d) {
		sleepUntil(at)
	}
}

// sleepUntil is waitUntil on the Go timer: late by up to one host-timer
// quantum.
func sleepUntil(at time.Time) {
	if d := at.Sub(now()); d > 0 {
		time.Sleep(d)
	}
}

// Pacer keeps one sequential caller on its model schedule. A wait still
// wakes a little late (tens of µs, or up to ~1 ms where the precise timer
// is unavailable), and a loaded host may not run the caller at once; the
// caller's next reservation starts that much earlier, so over any run of
// paced waits its real time is the model's plus at most one wake-up delay,
// not one per wait. The zero value is ready; it is not safe for concurrent
// use.
type Pacer struct{ late time.Duration }

// start returns the instant the caller's next reservation starts from.
func (p *Pacer) start() time.Time { return now().Add(-p.late) }

// waitUntil waits until the model instant at and records how late the
// caller woke. If at has passed, lateness can only shrink: time spent
// between paced waits never turns into credit.
func (p *Pacer) waitUntil(at time.Time) {
	if d := at.Sub(now()); d > 0 {
		waitUntil(at)
		p.late = now().Sub(at)
	} else if -d < p.late {
		p.late = -d
	}
}

// sleepOrStop pauses for d but returns early, reporting false, when stop
// is closed. The chaos schedule runner uses it so a finished workload can
// cancel pending fault events without waiting out the whole horizon.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
