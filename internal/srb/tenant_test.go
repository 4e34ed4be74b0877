package srb

import (
	"bufio"
	"errors"
	"io"
	"testing"
	"time"

	"semplar/internal/netsim"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// tenantServer builds a memory server with a tenant registry on the given
// clock, registering each tenant under a per-tenant key derived from its ID.
func tenantServer(now func() time.Time, tenants map[string]tenant.Limits) (*Server, *tenant.Registry) {
	srv := NewMemServer(storage.DeviceSpec{})
	var reg *tenant.Registry
	if now != nil {
		reg = tenant.NewRegistryClock(now)
	} else {
		reg = tenant.NewRegistry()
	}
	for id, lim := range tenants {
		reg.Register(id, tenantKey(id), lim)
	}
	srv.SetTenants(reg)
	return srv, reg
}

func tenantKey(id string) []byte { return []byte("key-for-" + id) }

// connectAuth dials srv over a simulated pipe presenting cred.
func connectAuth(t *testing.T, srv *Server, cred Credentials) (*Conn, error) {
	t.Helper()
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	return NewConnAuth(cEnd, "tester", cred)
}

func TestAuthHandshakeSuccess(t *testing.T) {
	srv, _ := tenantServer(nil, map[string]tenant.Limits{"acme": {}})
	conn, err := connectAuth(t, srv, Credentials{TenantID: "acme", Key: tenantKey("acme")})
	if err != nil {
		t.Fatalf("authenticated handshake: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	// Files created on an authenticated session are owned by the tenant
	// and accounted against its usage.
	f, err := conn.Open("/owned", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("twelve bytes"), 0); err != nil {
		t.Fatal(err)
	}
	if got := srv.Catalog().Usage("acme"); got != 12 {
		t.Fatalf("tenant usage = %d, want 12", got)
	}
}

func TestAuthRefusalPaths(t *testing.T) {
	cases := []struct {
		name string
		cred Credentials
	}{
		{"anonymous", Credentials{}},
		{"unknown tenant", Credentials{TenantID: "ghost", Key: tenantKey("ghost")}},
		{"wrong key", Credentials{TenantID: "acme", Key: []byte("not the key")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := tenantServer(nil, map[string]tenant.Limits{"acme": {}})
			conn, err := connectAuth(t, srv, c.cred)
			if err == nil {
				conn.Close()
				t.Fatal("handshake accepted")
			}
			if !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("handshake error = %v, want ErrAuthFailed", err)
			}
			if Retryable(err) {
				t.Fatal("auth failure classified retryable")
			}
			if st := srv.Stats(); st.AuthFailed != 1 {
				t.Fatalf("AuthFailed = %d, want 1", st.AuthFailed)
			}
			// The refused connection is torn down server-side: no conns,
			// no handles left behind.
			waitStats(t, srv, "refused conn teardown", func(st ServerStats) bool {
				return st.ActiveConns == 0 && st.OpenHandles == 0
			})
		})
	}
}

func TestMalformedAuthBlobRefusedWithoutDesync(t *testing.T) {
	// Handcraft connect requests with broken auth blobs. Each must be
	// answered with a clean statusAuthFailed response (never a stream
	// desync) and then hung up on.
	blobs := [][]byte{
		{0xff},            // not even a length prefix
		{0, 0, 0, 9, 'a'}, // tenant-ID length beyond the blob
		append(encodeAuth("acme", make([]byte, tenant.ProofSize)), 0xEE), // trailing garbage
		encodeAuth("acme", nil)[:6],                                      // truncated proof length field
	}
	for i, blob := range blobs {
		srv, _ := tenantServer(nil, map[string]tenant.Limits{"acme": {}})
		cEnd, sEnd := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(sEnd)
		bw := bufio.NewWriter(cEnd)
		if err := writeRequest(bw, &request{op: opConnect, seq: 1, path: "tester", data: blob}); err != nil {
			t.Fatalf("blob %d: write: %v", i, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("blob %d: flush: %v", i, err)
		}
		resp, err := readResponse(bufio.NewReader(cEnd))
		if err != nil {
			t.Fatalf("blob %d: response: %v", i, err)
		}
		if resp.status != statusAuthFailed {
			t.Fatalf("blob %d: status = %d, want statusAuthFailed", i, resp.status)
		}
		// The server hangs up after refusing: the next read sees EOF, not
		// a half-parsed stream.
		if _, err := readResponse(bufio.NewReader(cEnd)); !errors.Is(err, io.EOF) && !errors.Is(err, netsim.ErrClosed) {
			t.Fatalf("blob %d: post-refusal read = %v, want EOF", i, err)
		}
		cEnd.Close()
		waitStats(t, srv, "refused conn teardown", func(st ServerStats) bool {
			return st.ActiveConns == 0
		})
	}
}

func TestOpsRequireAuthenticatedSession(t *testing.T) {
	// A session that skips the handshake entirely must not reach dispatch.
	srv, _ := tenantServer(nil, map[string]tenant.Limits{"acme": {}})
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	bw := bufio.NewWriter(cEnd)
	if err := writeRequest(bw, &request{op: opPing, seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(bufio.NewReader(cEnd))
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != statusAuthFailed {
		t.Fatalf("unauthenticated op status = %d, want statusAuthFailed", resp.status)
	}
	cEnd.Close()
}

func TestAnonymousServerStillAcceptsAnonymousConns(t *testing.T) {
	// Without a registry the legacy handshake keeps working, creds and all.
	srv := NewMemServer(storage.DeviceSpec{})
	conn, err := connectAuth(t, srv, Credentials{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimitShedAndRetryAfter(t *testing.T) {
	// A frozen virtual clock makes admission fully deterministic: the
	// tenant gets exactly its burst, then sheds until the clock moves.
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	srv, reg := tenantServer(clock, map[string]tenant.Limits{
		"meter": {OpsPerSec: 10, Burst: 0.1}, // depth 1: one op per frozen instant
	})
	conn, err := connectAuth(t, srv, Credentials{TenantID: "meter", Key: tenantKey("meter")})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The connect itself is not charged; the first op drains the bucket.
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("first op: %v", err)
	}
	_, err = conn.Ping()
	if err == nil {
		t.Fatal("second op admitted with an empty bucket")
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("shed error = %v, want ErrRateLimited", err)
	}
	if !Retryable(err) {
		t.Fatal("rate-limit shed not classified retryable")
	}
	var rl *RateLimitedError
	if !errors.As(err, &rl) || rl.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %v", err)
	}
	if st := srv.Stats(); st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
	if ts := reg.StatsAll()["meter"]; ts.ShedOps != 1 || ts.Admitted != 1 {
		t.Fatalf("tenant stats = %+v, want 1 shed, 1 admitted", ts)
	}

	// Advancing the virtual clock by the hint refills the bucket.
	now = now.Add(rl.RetryAfter)
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("op after retry-after: %v", err)
	}
}

// TestTenantByteCharge: the byte bucket is charged the bytes an op moves. A
// vectored read pays the sum of its ranges, not its table; a truncate pays
// nothing, so a tenant may truncate beyond its bucket depth.
func TestTenantByteCharge(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	srv, reg := tenantServer(func() time.Time { return now }, map[string]tenant.Limits{
		"meter": {BytesPerSec: 1000, Burst: 1}, // depth 1000 bytes, ops unlimited
	})
	conn, err := connectAuth(t, srv, Credentials{TenantID: "meter", Key: tenantKey("meter")})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/metered", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 600), 0); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second) // refill to the full depth

	buf := make([]byte, 600)
	if _, err := f.ReadAtVec([]ReadSeg{{Off: 0, Buf: buf[:300]}, {Off: 400, Buf: buf[300:500]}}); err != nil {
		t.Fatalf("500-byte vectored read: %v", err)
	}
	// 500 bytes are left: one more byte than that is refused, and
	// exactly that much drains the bucket.
	if _, err := f.ReadAt(buf[:501], 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("501-byte read after a 500-byte vectored read = %v, want ErrRateLimited", err)
	}
	if _, err := f.ReadAt(buf[:500], 0); err != nil {
		t.Fatalf("500-byte read: %v", err)
	}
	if err := f.Truncate(5000); err != nil {
		t.Fatalf("truncate beyond the bucket depth on an empty bucket: %v", err)
	}
	if fi, err := f.Stat(); err != nil || fi.Size != 5000 {
		t.Fatalf("stat after truncate = %+v, %v", fi, err)
	}
	if ts := reg.StatsAll()["meter"]; ts.ShedOps != 1 {
		t.Fatalf("tenant stats = %+v, want 1 shed", ts)
	}
}

func TestQuotaExceededTerminal(t *testing.T) {
	srv, _ := tenantServer(nil, map[string]tenant.Limits{
		"boxed": {QuotaBytes: 16},
	})
	conn, err := connectAuth(t, srv, Credentials{TenantID: "boxed", Key: tenantKey("boxed")})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/boxedfile", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 12), 0); err != nil {
		t.Fatalf("write within quota: %v", err)
	}
	// Growing past the quota is refused before any byte is stored.
	_, err = f.WriteAt(make([]byte, 12), 12)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota write = %v, want ErrQuotaExceeded", err)
	}
	if Retryable(err) {
		t.Fatal("quota exhaustion classified retryable")
	}
	if got := srv.Catalog().Usage("boxed"); got != 12 {
		t.Fatalf("usage after refused write = %d, want 12", got)
	}
	// Truncate-up is the same growth path.
	if err := f.Truncate(64); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota truncate = %v, want ErrQuotaExceeded", err)
	}
	// Rewrites in place and shrinking stay admissible...
	if _, err := f.WriteAt(make([]byte, 12), 0); err != nil {
		t.Fatalf("in-place rewrite: %v", err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	// ...and freed bytes come back to the tenant.
	if _, err := f.WriteAt(make([]byte, 12), 0); err != nil {
		t.Fatalf("write after shrink: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Unlink("/boxedfile"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Catalog().Usage("boxed"); got != 0 {
		t.Fatalf("usage after unlink = %d, want 0", got)
	}
}

func TestFairShareIsolation(t *testing.T) {
	// One throttled tenant shedding hard must not take an unlimited
	// neighbor down with it — per-tenant buckets, not a global gate.
	now := time.Unix(2_000_000, 0)
	clock := func() time.Time { return now }
	srv, reg := tenantServer(clock, map[string]tenant.Limits{
		"greedy": {OpsPerSec: 1, Burst: 1},
		"polite": {},
	})
	greedy, err := connectAuth(t, srv, Credentials{TenantID: "greedy", Key: tenantKey("greedy")})
	if err != nil {
		t.Fatal(err)
	}
	defer greedy.Close()
	polite, err := connectAuth(t, srv, Credentials{TenantID: "polite", Key: tenantKey("polite")})
	if err != nil {
		t.Fatal(err)
	}
	defer polite.Close()

	var sheds int
	for i := 0; i < 20; i++ {
		if _, err := greedy.Ping(); errors.Is(err, ErrRateLimited) {
			sheds++
		}
		if _, err := polite.Ping(); err != nil {
			t.Fatalf("well-behaved tenant op %d: %v", i, err)
		}
	}
	if sheds == 0 {
		t.Fatal("flooding tenant was never shed")
	}
	stats := reg.StatsAll()
	if stats["polite"].ShedOps != 0 {
		t.Fatalf("well-behaved tenant shed %d ops", stats["polite"].ShedOps)
	}
	if stats["greedy"].ShedOps == 0 {
		t.Fatal("abuser sheds not visible in per-tenant stats")
	}
}
