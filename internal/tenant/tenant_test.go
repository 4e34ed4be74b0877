package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// virtualClock is a manually advanced clock; zero value starts at a fixed
// epoch so tests are reproducible run-to-run.
type virtualClock struct {
	t time.Time
}

func newVirtualClock() *virtualClock {
	return &virtualClock{t: time.Unix(1_000_000, 0)}
}

func (c *virtualClock) now() time.Time          { return c.t }
func (c *virtualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBucketBasics(t *testing.T) {
	clk := newVirtualClock()
	b := NewBucket(10, 10, clk.now) // 10 tokens/s, depth 10, starts full

	// Drain the full burst.
	for i := 0; i < 10; i++ {
		ok, _ := b.Ask(1, clk.now())
		if !ok {
			t.Fatalf("op %d refused with full bucket", i)
		}
		b.Take(1, clk.now())
	}
	ok, wait := b.Ask(1, clk.now())
	if ok {
		t.Fatal("11th op admitted from an empty bucket")
	}
	if wait <= 0 {
		t.Fatalf("refusal must carry a positive retry-after, got %v", wait)
	}
	// One token accrues in 100ms at 10/s; the hint should say so.
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("retry-after = %v, want %v", wait, want)
	}

	// Advancing by the hinted wait makes the request admissible.
	clk.advance(wait)
	if ok, _ := b.Ask(1, clk.now()); !ok {
		t.Fatal("op still refused after waiting the hinted retry-after")
	}
}

func TestBucketOversizedCost(t *testing.T) {
	clk := newVirtualClock()
	b := NewBucket(10, 10, clk.now)
	// Cost beyond depth can never be admitted in one piece, but the hint
	// must stay finite (one full-depth drain), not grow unboundedly.
	b.Take(10, clk.now())
	ok, wait := b.Ask(100, clk.now())
	if ok {
		t.Fatal("cost 100 admitted against depth 10")
	}
	if wait > time.Second || wait <= 0 {
		t.Fatalf("oversized-cost hint = %v, want (0, 1s]", wait)
	}
}

func TestBucketClockRewindSafe(t *testing.T) {
	clk := newVirtualClock()
	b := NewBucket(10, 10, clk.now)
	b.Take(5, clk.now())
	before := b.Tokens(clk.now())
	clk.t = clk.t.Add(-time.Hour) // rewind
	after := b.Tokens(clk.now())
	if after != before {
		t.Fatalf("clock rewind changed balance: %v -> %v", before, after)
	}
}

// TestAdmitDeterministic replays the same randomized schedule twice on
// fresh registries and demands byte-identical admit/shed/retry-after
// sequences — the property the chaos harness and golden traces rely on.
func TestAdmitDeterministic(t *testing.T) {
	run := func(seed int64) string {
		clk := newVirtualClock()
		reg := NewRegistryClock(clk.now)
		tn := reg.Register("acme", []byte("k"), Limits{OpsPerSec: 50, BytesPerSec: 4096, Burst: 1})
		rng := rand.New(rand.NewSource(seed))
		var log bytes.Buffer
		for i := 0; i < 500; i++ {
			clk.advance(time.Duration(rng.Intn(30)) * time.Millisecond)
			cost := int64(rng.Intn(512))
			ok, wait := tn.Admit(cost, clk.now())
			fmt.Fprintf(&log, "%d %v %v\n", i, ok, wait)
		}
		st := tn.Stats()
		fmt.Fprintf(&log, "admitted=%d shed=%d\n", st.Admitted, st.ShedOps)
		return log.String()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatal("same seed + schedule produced different admit/shed sequences")
	}
	if c := run(43); c == a {
		t.Fatal("different seed produced an identical sequence (schedule not exercising the buckets?)")
	}
}

func TestAdmitChargesBothBucketsOrNeither(t *testing.T) {
	clk := newVirtualClock()
	reg := NewRegistryClock(clk.now)
	// Op bucket generous, byte bucket tiny: a large request must be shed
	// by bytes without burning an op token.
	tn := reg.Register("t", []byte("k"), Limits{OpsPerSec: 1000, BytesPerSec: 10, Burst: 1})
	ok, wait := tn.Admit(1000, clk.now())
	if ok {
		t.Fatal("1000-byte request admitted against a 10-byte bucket")
	}
	if wait <= 0 {
		t.Fatal("shed without retry-after hint")
	}
	if got := tn.Stats(); got.ShedOps != 1 || got.Admitted != 0 {
		t.Fatalf("stats after shed = %+v, want ShedOps=1 Admitted=0", got)
	}
	// The op bucket must still be full: a small request goes straight in.
	if ok, _ := tn.Admit(1, clk.now()); !ok {
		t.Fatal("small request refused — shed request burned tokens it should not have")
	}
}

func TestAdmitUnlimitedTenant(t *testing.T) {
	clk := newVirtualClock()
	reg := NewRegistryClock(clk.now)
	tn := reg.Register("free", []byte("k"), Limits{})
	for i := 0; i < 10000; i++ {
		if ok, _ := tn.Admit(1<<20, clk.now()); !ok {
			t.Fatal("zero Limits must admit everything")
		}
	}
	if st := tn.Stats(); st.Admitted != 10000 || st.ShedOps != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProofVerify(t *testing.T) {
	key := []byte("super secret")
	reg := NewRegistry()
	reg.Register("acme", key, Limits{})

	if _, err := reg.Authenticate("acme", "alice", Proof(key, "acme", "alice")); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if _, err := reg.Authenticate("ghost", "alice", Proof(key, "ghost", "alice")); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v, want ErrUnknownTenant", err)
	}
	if _, err := reg.Authenticate("acme", "alice", Proof([]byte("wrong"), "acme", "alice")); !errors.Is(err, ErrBadProof) {
		t.Fatalf("wrong key: got %v, want ErrBadProof", err)
	}
	// Proof binds the user: a proof minted for alice must not open a
	// session as bob.
	if _, err := reg.Authenticate("acme", "bob", Proof(key, "acme", "alice")); !errors.Is(err, ErrBadProof) {
		t.Fatalf("user swap: got %v, want ErrBadProof", err)
	}
	// Proof binds the tenant ID even under the same key.
	reg.Register("acme2", key, Limits{})
	if _, err := reg.Authenticate("acme2", "alice", Proof(key, "acme", "alice")); !errors.Is(err, ErrBadProof) {
		t.Fatalf("tenant swap: got %v, want ErrBadProof", err)
	}
	if _, err := reg.Authenticate("acme", "alice", nil); !errors.Is(err, ErrBadProof) {
		t.Fatalf("nil proof: got %v, want ErrBadProof", err)
	}
}

func TestRegistryNamesAndStats(t *testing.T) {
	reg := NewRegistry()
	reg.Register("b", []byte("k"), Limits{})
	reg.Register("a", []byte("k"), Limits{})
	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v, want [a b]", names)
	}
	all := reg.StatsAll()
	if len(all) != 2 {
		t.Fatalf("StatsAll() has %d entries, want 2", len(all))
	}
}

func TestRegisterResetsBuckets(t *testing.T) {
	clk := newVirtualClock()
	reg := NewRegistryClock(clk.now)
	tn := reg.Register("t", []byte("k"), Limits{OpsPerSec: 1, Burst: 1})
	if ok, _ := tn.Admit(0, clk.now()); !ok {
		t.Fatal("first op refused")
	}
	if ok, _ := tn.Admit(0, clk.now()); ok {
		t.Fatal("second op admitted against rate 1, burst 1")
	}
	tn2 := reg.Register("t", []byte("k"), Limits{OpsPerSec: 1, Burst: 1})
	if ok, _ := tn2.Admit(0, clk.now()); !ok {
		t.Fatal("re-registered tenant did not get a fresh bucket")
	}
}
