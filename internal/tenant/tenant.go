// Package tenant implements the multi-tenant control plane of the SRB
// server: shared-key tenant identities with HMAC connect proofs, per-tenant
// token-bucket rate limits (ops/s and bytes/s) and storage quotas, and the
// per-tenant admission counters the observability endpoint exports.
//
// The package is deliberately mechanism-only: it never touches the wire or
// the catalog. The srb server asks a Registry to authenticate a handshake
// proof and to admit each request against the tenant's buckets; MCAT asks
// nothing of it (quota accounting lives with the metadata it derives from).
// Buckets run on an injectable clock so admission sequences are exactly
// reproducible in tests — the same property netsim's virtual transmission
// clock gives the network simulation.
package tenant

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Registry errors.
var (
	// ErrUnknownTenant is returned for a handshake naming a tenant the
	// registry has no key for.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrBadProof is returned when the handshake proof does not verify
	// against the tenant's key.
	ErrBadProof = errors.New("tenant: key proof mismatch")
)

// proofContext domain-separates the connect proof from any other use of
// the tenant key.
const proofContext = "srb-connect-v1"

// ProofSize is the length of a connect proof (HMAC-SHA256).
const ProofSize = sha256.Size

// Proof computes the connect-handshake key proof: HMAC-SHA256 over the
// tenant ID and user name under the tenant's shared key. Both sides compute
// it — the client to present, the server to verify — so the key itself
// never crosses the wire.
func Proof(key []byte, tenantID, user string) []byte {
	mac := hmac.New(sha256.New, key)
	// NUL separators make the message injective: ("ab","c") and ("a","bc")
	// must not collide.
	msg := make([]byte, 0, len(proofContext)+len(tenantID)+len(user)+2)
	msg = append(msg, proofContext...)
	msg = append(msg, 0)
	msg = append(msg, tenantID...)
	msg = append(msg, 0)
	msg = append(msg, user...)
	//lint:allow errdrop -- hash.Hash.Write is documented to never return an error
	mac.Write(msg)
	return mac.Sum(nil)
}

// Limits bounds one tenant's resource consumption. Zero-valued fields are
// unlimited, so the zero Limits admits everything — a registered tenant
// with no limits is authentication-only.
type Limits struct {
	// OpsPerSec refills the operation bucket (each request costs one op).
	OpsPerSec float64
	// BytesPerSec refills the byte bucket. A request is charged the bytes
	// it moves: a write its frame payload, a read the sum of its ranges;
	// every other op, truncate included, costs nothing.
	BytesPerSec float64
	// Burst scales both bucket depths: a tenant may consume Burst seconds
	// of its rate in one spike. Zero or negative defaults to one second.
	Burst float64
	// QuotaBytes caps the tenant's total stored bytes in the catalog.
	QuotaBytes int64
}

func (l Limits) burst() float64 {
	if l.Burst <= 0 {
		return 1
	}
	return l.Burst
}

// Stats is a snapshot of one tenant's admission counters.
type Stats struct {
	Admitted int64 // requests admitted through the buckets
	ShedOps  int64 // requests refused by the op or byte bucket
}

// Tenant is one registered identity: its shared key, limits and buckets.
type Tenant struct {
	ID     string
	key    []byte
	limits Limits

	ops   *Bucket // nil = unlimited
	bytes *Bucket // nil = unlimited

	admitted atomicCounter
	shed     atomicCounter
}

// Limits reports the tenant's configured limits.
func (t *Tenant) Limits() Limits { return t.limits }

// Stats snapshots the tenant's admission counters.
func (t *Tenant) Stats() Stats {
	return Stats{Admitted: t.admitted.load(), ShedOps: t.shed.load()}
}

// Admit charges one request of cost bytes against the tenant's buckets.
// Both buckets are charged or neither: a request refused by the byte bucket
// does not burn an op token, so a shed request leaves the tenant's state as
// if it had never arrived (the same never-started property the global
// MaxInflight shed has). On refusal it returns false and the wait until the
// refused request would fit — the retry-after hint carried to the client.
func (t *Tenant) Admit(cost int64, now time.Time) (bool, time.Duration) {
	if t.ops == nil && t.bytes == nil {
		t.admitted.add(1)
		return true, 0
	}
	ok1, wait1 := true, time.Duration(0)
	if t.ops != nil {
		ok1, wait1 = t.ops.Ask(1, now)
	}
	ok2, wait2 := true, time.Duration(0)
	if t.bytes != nil && cost > 0 {
		ok2, wait2 = t.bytes.Ask(float64(cost), now)
	}
	if !ok1 || !ok2 {
		t.shed.add(1)
		if wait2 > wait1 {
			wait1 = wait2
		}
		return false, wait1
	}
	if t.ops != nil {
		t.ops.Take(1, now)
	}
	if t.bytes != nil && cost > 0 {
		t.bytes.Take(float64(cost), now)
	}
	t.admitted.add(1)
	return true, 0
}

// Registry holds the tenant set. When attached to an srb server it makes
// authentication mandatory: every connect must present a valid tenant
// proof. The registry is shared across server generations (like a config
// file on disk), so bucket state and counters survive a crash/restart of
// the serving process — the abusive tenant does not get a fresh bucket by
// crashing the server.
type Registry struct {
	now func() time.Time // injected clock; immutable after NewRegistry

	mu      sync.RWMutex
	tenants map[string]*Tenant // guarded by mu
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry { return NewRegistryClock(time.Now) }

// NewRegistryClock returns an empty registry whose buckets read time from
// now — a virtual clock makes admit/shed sequences exactly reproducible.
func NewRegistryClock(now func() time.Time) *Registry {
	return &Registry{now: now, tenants: make(map[string]*Tenant)}
}

// Register adds or replaces a tenant. The key is copied; fresh buckets are
// built from the limits, so re-registering resets bucket state.
func (r *Registry) Register(id string, key []byte, limits Limits) *Tenant {
	t := &Tenant{
		ID:     id,
		key:    append([]byte(nil), key...),
		limits: limits,
	}
	if limits.OpsPerSec > 0 {
		t.ops = NewBucket(limits.OpsPerSec, limits.OpsPerSec*limits.burst(), r.now)
	}
	if limits.BytesPerSec > 0 {
		t.bytes = NewBucket(limits.BytesPerSec, limits.BytesPerSec*limits.burst(), r.now)
	}
	r.mu.Lock()
	r.tenants[id] = t
	r.mu.Unlock()
	return t
}

// Lookup returns a registered tenant.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Authenticate verifies a connect proof. Unknown tenants and bad proofs
// return distinct errors for the server's log, but the wire response is the
// same terminal auth failure either way — the handshake must not oracle
// which tenant IDs exist.
func (r *Registry) Authenticate(id, user string, proof []byte) (*Tenant, error) {
	t, ok := r.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	want := Proof(t.key, id, user)
	if !hmac.Equal(want, proof) {
		return nil, fmt.Errorf("%w: tenant %q", ErrBadProof, id)
	}
	return t, nil
}

// Now reads the registry's clock (the server stamps retry-after hints with
// the same clock the buckets run on).
func (r *Registry) Now() time.Time { return r.now() }

// Names lists the registered tenant IDs, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// StatsAll snapshots every tenant's admission counters, keyed by ID.
func (r *Registry) StatsAll() map[string]Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Stats, len(r.tenants))
	for id, t := range r.tenants {
		out[id] = t.Stats()
	}
	return out
}
