package mcat

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// mutateOwned drives every size-changing mutation through owned files, so
// replay tests exercise the full usage-accounting surface.
func mutateOwned(t *testing.T, c *Catalog) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.CreateFileAs("/a", "mem", "acme")
	must(err)
	_, err = c.CreateFileAs("/b", "mem", "acme")
	must(err)
	_, err = c.CreateFileAs("/z", "mem", "zeta")
	must(err)
	_, err = c.CreateFile("/anon", "mem") // unowned: never accounted
	must(err)
	must(c.SetSize("/a", 100))
	must(c.GrowSize("/a", 4096))
	must(c.GrowSize("/a", 64)) // no growth: no charge
	must(c.SetSize("/b", 500))
	must(c.SetSize("/b", 200)) // shrink refunds
	must(c.SetSize("/z", 77))
	must(c.SetSize("/anon", 1<<20))
	must(c.Remove("/b")) // remove refunds the rest
}

func wantUsage(t *testing.T, c *Catalog, owner string, want int64) {
	t.Helper()
	if got := c.Usage(owner); got != want {
		t.Fatalf("Usage(%q) = %d, want %d", owner, got, want)
	}
}

func TestUsageAccounting(t *testing.T) {
	c, _ := journaledCatalog()
	mutateOwned(t, c)
	wantUsage(t, c, "acme", 4096)
	wantUsage(t, c, "zeta", 77)
	wantUsage(t, c, "", 0) // anonymous files are untracked
	all := c.UsageAll()
	if !reflect.DeepEqual(all, map[string]int64{"acme": 4096, "zeta": 77}) {
		t.Fatalf("UsageAll = %v", all)
	}
}

func TestUsageSurvivesReplay(t *testing.T) {
	c, j := journaledCatalog()
	mutateOwned(t, c)

	c2 := replayInto(j)
	wantUsage(t, c2, "acme", 4096)
	wantUsage(t, c2, "zeta", 77)
	if e, err := c2.Lookup("/a"); err != nil || e.Owner != "acme" {
		t.Fatalf("replayed owner = %+v, %v", e, err)
	}
	if e, err := c2.Lookup("/anon"); err != nil || e.Owner != "" {
		t.Fatalf("replayed anonymous owner = %+v, %v", e, err)
	}
}

func TestUsageReplayIdempotent(t *testing.T) {
	c, j := journaledCatalog()
	mutateOwned(t, c)

	// A re-applied prefix (sloppy crash cut) must not double-count usage:
	// a replayed create supersedes the live entry rather than stacking a
	// second copy of its bytes.
	c2 := New()
	c2.RegisterResource(ResourceInfo{Name: "mem", Kind: "memory", Host: "t"})
	c2.Replay(j.Records())
	c2.Replay(j.Records())
	wantUsage(t, c2, "acme", 4096)
	wantUsage(t, c2, "zeta", 77)
}

func TestUsageSurvivesTextJournalTornTail(t *testing.T) {
	c, j := journaledCatalog()
	mutateOwned(t, c)

	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Tear the final line (the remove of /b): replay charges /b's 200
	// bytes back to acme, exactly what a crash before the remove implies.
	torn := strings.TrimSuffix(buf.String(), "\n")
	torn = torn[:len(torn)-3]
	recs, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	c2 := New()
	c2.RegisterResource(ResourceInfo{Name: "mem", Kind: "memory", Host: "t"})
	c2.Replay(recs)
	wantUsage(t, c2, "acme", 4096+200)
}

func TestOwnerFieldRoundTrip(t *testing.T) {
	r := Record{Op: JCreate, Path: "/a", Resource: "mem", Key: "obj-1", Seq: 1, Time: 9, Owner: "acme"}
	line := EncodeRecord(nil, r)
	got, err := DecodeRecord(string(line))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\nwant %+v\ngot  %+v", r, got)
	}
	// Records written before the tenant layer decode with no owner.
	legacy := `v1 create t=9 path="/a" res="mem" key="obj-1" seq=1`
	got, err = DecodeRecord(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "" {
		t.Fatalf("legacy record grew an owner: %+v", got)
	}
}

func TestSetQuotaAndCheckGrow(t *testing.T) {
	c := New()
	c.RegisterResource(ResourceInfo{Name: "mem", Kind: "memory", Host: "t"})
	if _, err := c.CreateFileAs("/q", "mem", "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("/free", "mem"); err != nil {
		t.Fatal(err)
	}

	// No quota configured: growth is unlimited.
	if err := c.CheckGrow("/q", 1<<40); err != nil {
		t.Fatalf("unquota'd CheckGrow: %v", err)
	}

	c.SetQuota("acme", 1000)
	if err := c.CheckGrow("/q", 1000); err != nil {
		t.Fatalf("CheckGrow at exactly the quota: %v", err)
	}
	if err := c.CheckGrow("/q", 1001); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("CheckGrow over quota = %v, want ErrQuotaExceeded", err)
	}
	// Usage elsewhere counts against the same tenant.
	if err := c.SetSize("/q", 400); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFileAs("/q2", "mem", "acme"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckGrow("/q2", 601); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("CheckGrow ignoring sibling usage = %v", err)
	}
	if err := c.CheckGrow("/q2", 600); err != nil {
		t.Fatalf("CheckGrow within remaining quota: %v", err)
	}
	// Shrinking (or standing still) is always allowed, even over quota.
	c.SetQuota("acme", 100)
	if err := c.CheckGrow("/q", 400); err != nil {
		t.Fatalf("CheckGrow to current size: %v", err)
	}
	if err := c.CheckGrow("/q", 10); err != nil {
		t.Fatalf("CheckGrow shrinking: %v", err)
	}
	// Unowned files never hit quota machinery.
	if err := c.CheckGrow("/free", 1<<40); err != nil {
		t.Fatalf("unowned CheckGrow: %v", err)
	}
	// Clearing the quota lifts the limit.
	c.SetQuota("acme", 0)
	if err := c.CheckGrow("/q", 1<<40); err != nil {
		t.Fatalf("CheckGrow after quota cleared: %v", err)
	}
}
