package bufpool

import "testing"

func TestClassSelectionAndBalance(t *testing.T) {
	p := New(16, 64)
	cases := []struct{ n, wantCap int }{{0, 16}, {16, 16}, {17, 64}, {64, 64}}
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", c.n, len(b), cap(b), c.wantCap)
		}
		p.Put(b)
	}
	if gets, puts := p.Balance(); gets != int64(len(cases)) || puts != gets {
		t.Fatalf("balance = %d gets, %d puts, want %d each", gets, puts, len(cases))
	}

	// Above the ladder is a plain allocation: never counted, never pooled.
	big := p.Get(65)
	if len(big) != 65 {
		t.Fatalf("oversize Get: len %d", len(big))
	}
	p.Put(big)
	p.Put(nil)
	p.Put(make([]byte, 10, 20)) // no such class
	if gets, puts := p.Balance(); gets != 4 || puts != 4 {
		t.Fatalf("off-ladder buffers moved the counters: %d gets, %d puts", gets, puts)
	}

	// A resliced class buffer goes back by capacity and comes out whole.
	b := p.Get(64)
	p.Put(b[:3])
	if got := p.Get(40); cap(got) != 64 || len(got) != 40 {
		t.Fatalf("recycled buffer: len %d cap %d", len(got), cap(got))
	}
}

// TestGetPutAllocatesNothing: once warm, a Get/Put pair allocates nothing,
// not even the *[]byte box sync.Pool stores a buffer in. The race detector
// makes sync.Pool drop a random share of what is put, so the count means
// nothing there.
func TestGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p := New(16, 64)
	if n := testing.AllocsPerRun(1000, func() { p.Put(p.Get(40)) }); n != 0 {
		t.Fatalf("Get/Put pair allocates %v times, want 0", n)
	}
}
