package core

import (
	"math/rand"
	"testing"

	"semplar/internal/adio"
)

// TestPlanProperties pins the one stripe plan for both layouts: shared
// (SRBFS streams, local offset == global) and dense (federation slot
// files). For every case the pieces must tile the extents in order without
// gap or overlap, stay inside one block, land on block%width, and — dense —
// sit at exactly the number of bytes their slot holds below them.
func TestPlanProperties(t *testing.T) {
	ext := func(off int64, n int) adio.Vec { return adio.Vec{Off: off, Buf: make([]byte, n)} }
	type want struct {
		target int
		gOff   int64
		n      int
	}
	cases := []struct {
		name    string
		stripe  int64
		width   int
		extents []adio.Vec
		want    []want // exact expectation, where one is spelled out
	}{
		{
			name: "unaligned run over two targets", stripe: 100, width: 2,
			extents: []adio.Vec{ext(50, 250)},
			want:    []want{{0, 50, 50}, {1, 100, 100}, {0, 200, 100}},
		},
		{name: "straddles the first boundary, three targets", stripe: 4, width: 3, extents: []adio.Vec{ext(2, 37)}},
		{name: "inside one block", stripe: 64, width: 4, extents: []adio.Vec{ext(70, 10)}},
		{name: "exactly one block", stripe: 64, width: 4, extents: []adio.Vec{ext(128, 64)}},
		{name: "width one", stripe: 8, width: 1, extents: []adio.Vec{ext(3, 30)}},
		{
			name: "scatter list with an empty and an out-of-order extent", stripe: 16, width: 3,
			extents: []adio.Vec{ext(0, 5), ext(90, 0), ext(14, 40), ext(200, 16), ext(7, 2)},
		},
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		var extents []adio.Vec
		for k := rng.Intn(6); k >= 0; k-- {
			extents = append(extents, ext(rng.Int63n(500), rng.Intn(120)))
		}
		cases = append(cases, struct {
			name    string
			stripe  int64
			width   int
			extents []adio.Vec
			want    []want
		}{name: "random", stripe: 1 + rng.Int63n(40), width: 1 + rng.Intn(5), extents: extents})
	}

	for _, c := range cases {
		for _, dense := range []bool{false, true} {
			l := layout{stripe: c.stripe, width: c.width, dense: dense}
			pieces := plan(c.extents, l)
			if c.want != nil {
				if len(pieces) != len(c.want) {
					t.Fatalf("%s: %d pieces, want %d", c.name, len(pieces), len(c.want))
				}
				for i, w := range c.want {
					if p := pieces[i]; p.target != w.target || p.gOff != w.gOff || len(p.buf) != w.n {
						t.Fatalf("%s: piece %d = {t%d g%d n%d}, want %+v", c.name, i, p.target, p.gOff, len(p.buf), w)
					}
				}
			}
			next := 0
			for _, e := range c.extents {
				at := e.Off
				for at < e.Off+int64(len(e.Buf)) {
					if next == len(pieces) {
						t.Fatalf("%s dense=%v: plan ends at %d inside extent [%d,+%d)", c.name, dense, at, e.Off, len(e.Buf))
					}
					p := pieces[next]
					next++
					if p.gOff != at || len(p.buf) == 0 {
						t.Fatalf("%s dense=%v: piece at %d len %d, want a non-empty piece at %d", c.name, dense, p.gOff, len(p.buf), at)
					}
					if &p.buf[0] != &e.Buf[at-e.Off] {
						t.Fatalf("%s dense=%v: piece at %d does not alias its extent's bytes", c.name, dense, at)
					}
					blk := p.gOff / c.stripe
					if last := (p.gOff + int64(len(p.buf)) - 1) / c.stripe; last != blk {
						t.Fatalf("%s dense=%v: piece at %d spans blocks %d..%d", c.name, dense, p.gOff, blk, last)
					}
					if p.target != int(blk%int64(c.width)) {
						t.Fatalf("%s dense=%v: piece at %d on target %d, want %d", c.name, dense, p.gOff, p.target, blk%int64(c.width))
					}
					wantLocal := p.gOff
					if dense {
						wantLocal = l.slotSpan(p.gOff, p.target)
					}
					if p.lOff != wantLocal {
						t.Fatalf("%s dense=%v: piece at %d has local offset %d, want %d", c.name, dense, p.gOff, p.lOff, wantLocal)
					}
					at += int64(len(p.buf))
				}
				if at != e.Off+int64(len(e.Buf)) {
					t.Fatalf("%s dense=%v: pieces overrun extent [%d,+%d) to %d", c.name, dense, e.Off, len(e.Buf), at)
				}
			}
			if next != len(pieces) {
				t.Fatalf("%s dense=%v: %d pieces beyond the extents", c.name, dense, len(pieces)-next)
			}
		}

		// slotSpan partitions any size across the slots, and slotEnd
		// inverts it: no slot's inverse overshoots, and the largest
		// recovers the size exactly.
		l := layout{stripe: c.stripe, width: c.width, dense: true}
		for size := int64(0); size <= 3*c.stripe*int64(c.width)+1; size++ {
			var total, back int64
			for slot := 0; slot < c.width; slot++ {
				local := l.slotSpan(size, slot)
				total += local
				back = max(back, l.slotEnd(local, slot))
			}
			if total != size || back != size {
				t.Fatalf("%s: size %d partitions to %d and inverts to %d", c.name, size, total, back)
			}
		}
	}
}
