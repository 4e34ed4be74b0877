package srb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"
)

// ErrTimeout marks an operation that exceeded its per-operation deadline.
// The connection it fired on is dead (the watchdog severs it to unblock the
// reader), so the error is retryable — on a fresh connection.
var ErrTimeout = newErr("srb: operation timed out", noStatus, transient)

// ErrTransport wraps any failure of the wire itself — a broken TCP stream,
// a connection reset, an unexpected EOF mid-response. Transport errors are
// sticky on their connection and retryable on a new one, in contrast to
// server status errors (ErrNotFound, ErrPerm, ...) which are terminal.
var ErrTransport = newErr("srb: transport failure", noStatus, transient)

// RetryPolicy describes how the client reacts to transient failures:
// how many times one logical operation may be attempted, how long to back
// off between attempts (exponential with jitter, so reconnect storms from
// many streams decorrelate), and the per-operation deadline.
//
// The zero value disables retries and deadlines — the historical
// fail-fast behavior. Use DefaultRetryPolicy for production-style
// settings.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries for one operation,
	// including the first. Values below 2 mean "no retries".
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 5ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter is the fraction of each backoff randomized, in [0, 1]:
	// the sleep is drawn from backoff * [1-Jitter, 1+Jitter].
	Jitter float64
	// OpTimeout is the per-operation deadline on a connection; when it
	// fires the connection is severed and the call fails with
	// ErrTimeout. Zero means no deadline.
	OpTimeout time.Duration
}

// DefaultRetryPolicy returns the recommended production policy: four
// attempts, 10ms initial backoff doubling to a 2s cap with 20% jitter, and
// a 30s per-operation deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		OpTimeout:   30 * time.Second,
	}
}

// Enabled reports whether the policy allows any retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Backoff returns the sleep before retry number retry (0-based), following
// exponential growth with jitter.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := float64(base) * math.Pow(mult, float64(retry))
	if d > float64(cap) {
		d = float64(cap)
	}
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d *= 1 - j + 2*j*rand.Float64()
	}
	return time.Duration(d)
}

// BackoffFor returns the sleep before retry number retry (0-based) after
// err. It is Backoff raised to any server-supplied retry-after floor: when
// err carries a *RateLimitedError hint, sleeping less than the hint would
// only buy another shed, so the hint wins over a smaller exponential step
// (but never shortens a larger one).
func (p RetryPolicy) BackoffFor(retry int, err error) time.Duration {
	d := p.Backoff(retry)
	var rl *RateLimitedError
	if errors.As(err, &rl) && rl.RetryAfter > d {
		d = rl.RetryAfter
	}
	return d
}

// Retryable classifies an error from the client stack by its row in the
// srb error table (errTable): true for transient failures whose operation
// can safely be reissued, false for terminal ones. An error that matches
// rows of both classes is transient.
//
// Unknown errors — raw net errors from a dialer, simulator failures —
// default to retryable: the reconnect budget bounds the damage, and
// misclassifying a transient fault as terminal loses a recoverable
// request. Every srb error is declared with its row, so none can
// silently inherit the default.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	known := false
	for _, r := range errTable {
		if errors.Is(err, r.err) {
			if r.retryable {
				return true
			}
			known = true
		}
	}
	return !known
}

// Do is the client stack's one retry loop: it runs try until it succeeds,
// fails terminally (Retryable false — io.EOF included, a result rather than
// a failure), or the policy's attempts are spent, sleeping BackoffFor
// between attempts. It returns how many attempts ran and the last error,
// marked with the attempt count when more than one was made.
//
// recovery, when non-nil, runs after each backoff to repair whatever the
// failed attempt broke (redial a dead stream) before the next try. It is
// skipped for ErrServerBusy and ErrRateLimited: both are status replies
// from a healthy server over a healthy connection, so the replay reuses it
// and spends nothing but the backoff. A terminal error from recovery ends
// the loop; a transient one is left for the next try to trip over.
func (p RetryPolicy) Do(try func() error, recovery func() error) (attempts int, err error) {
	return p.do(time.Sleep, try, recovery)
}

// do is Do with the sleeper injected, so tests record the backoff schedule
// instead of waiting it out.
func (p RetryPolicy) do(sleep func(time.Duration), try func() error, recovery func() error) (int, error) {
	for attempt := 1; ; attempt++ {
		err := try()
		if err == nil || !Retryable(err) {
			return attempt, err
		}
		if attempt >= p.MaxAttempts {
			if attempt > 1 {
				err = fmt.Errorf("srb: giving up after %d attempts: %w", attempt, err)
			}
			return attempt, err
		}
		sleep(p.BackoffFor(attempt-1, err))
		if recovery == nil || errors.Is(err, ErrServerBusy) || errors.Is(err, ErrRateLimited) {
			continue
		}
		if rerr := recovery(); rerr != nil && !Retryable(rerr) {
			return attempt, rerr
		}
	}
}

// DialAuth makes one attempt at a ready connection: dial, handshake with
// the tenant credentials, install the per-operation deadline.
func DialAuth(dial func() (net.Conn, error), user string, cred Credentials, opTimeout time.Duration) (*Conn, error) {
	raw, err := dial()
	if err != nil {
		return nil, err
	}
	conn, err := NewConnAuth(raw, user, cred)
	if err != nil {
		return nil, err
	}
	conn.SetOpTimeout(opTimeout)
	return conn, nil
}

// DialRetry dials and handshakes an anonymous connection, retrying
// transient failures (unreachable server, broken handshake) under the
// policy. The returned connection has the policy's per-operation deadline
// installed.
func DialRetry(dial func() (net.Conn, error), user string, pol RetryPolicy) (*Conn, error) {
	return DialRetryAuth(dial, user, Credentials{}, pol)
}

// DialRetryAuth is DialRetry with tenant credentials. An auth refusal is
// terminal and returned immediately — re-dialing with the same bad key
// would only hammer the server.
func DialRetryAuth(dial func() (net.Conn, error), user string, cred Credentials, pol RetryPolicy) (*Conn, error) {
	var conn *Conn
	_, err := pol.Do(func() (err error) {
		conn, err = DialAuth(dial, user, cred, pol.OpTimeout)
		return err
	}, nil)
	return conn, err
}
