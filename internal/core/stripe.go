package core

import (
	"fmt"
	"io"
	"sync"

	"semplar/internal/adio"
)

// This file is the one RAID-0 stripe plan under both striping drivers —
// SRBFS cutting a file across the TCP streams of one server, FedFS cutting
// it across servers — and the helpers that turn a plan's per-piece
// outcomes back into the ADIO (n, err) contract.

// layout is a RAID-0 cut: the logical file is a sequence of stripe-sized
// blocks dealt round-robin over width targets, block b to target b%width.
type layout struct {
	stripe int64
	width  int
	// dense targets each hold only their own blocks, packed back to back
	// (federation slot files), so a piece is addressed by its slot-local
	// offset. Otherwise every target is a window onto the one shared file
	// (the streams of an SRBFS handle) and local offsets equal global ones.
	dense bool
}

// piece is one contiguous run of a striped transfer, confined to one block.
type piece struct {
	target int    // block % width
	lOff   int64  // offset on the target
	gOff   int64  // offset in the logical file
	buf    []byte // the caller's bytes for [gOff, gOff+len(buf))
}

// plan cuts the extents on block boundaries, in extent order. A dense
// layout places global block b at local offset (b/width)*stripe of its
// target, plus the position inside the block; slotSpan and slotEnd are the
// inverses of that mapping over whole-file sizes.
func plan(extents []adio.Vec, l layout) []piece {
	n := 0
	for _, e := range extents {
		if len(e.Buf) > 0 {
			n += int((e.Off+int64(len(e.Buf))-1)/l.stripe-e.Off/l.stripe) + 1
		}
	}
	pieces := make([]piece, 0, n)
	for _, e := range extents {
		buf, off := e.Buf, e.Off
		for len(buf) > 0 {
			blk := off / l.stripe
			within := off - blk*l.stripe
			take := min(l.stripe-within, int64(len(buf)))
			lOff := off
			if l.dense {
				lOff = (blk/int64(l.width))*l.stripe + within
			}
			pieces = append(pieces, piece{
				target: int(blk % int64(l.width)),
				lOff:   lOff,
				gOff:   off,
				buf:    buf[:take],
			})
			buf = buf[take:]
			off += take
		}
	}
	return pieces
}

// slotSpan reports how many bytes of a global prefix [0, size) land on one
// target of a dense layout — the length of that slot's file.
func (l layout) slotSpan(size int64, slot int) int64 {
	if size <= 0 {
		return 0
	}
	full := size / l.stripe
	rem := size % l.stripe
	n := (full / int64(l.width)) * l.stripe
	switch at := int(full % int64(l.width)); {
	case at > slot:
		n += l.stripe
	case at == slot:
		n += rem
	}
	return n
}

// slotEnd is the inverse: the smallest global size whose slot file holds
// local bytes [0, local).
func (l layout) slotEnd(local int64, slot int) int64 {
	if local <= 0 {
		return 0
	}
	last := local - 1
	gblk := (last/l.stripe)*int64(l.width) + int64(slot)
	return gblk*l.stripe + last%l.stripe + 1
}

// byTarget groups piece indices by target, plan order preserved.
func byTarget(pieces []piece, width int) [][]int {
	groups := make([][]int, width)
	for i, p := range pieces {
		groups[p.target] = append(groups[p.target], i)
	}
	return groups
}

// perTarget runs fn once per target that has pieces, all targets
// concurrently, and returns when every one is done.
func perTarget(pieces []piece, width int, fn func(target int, idxs []int)) {
	var wg sync.WaitGroup
	for t, idxs := range byTarget(pieces, width) {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(t, idxs)
		}()
	}
	wg.Wait()
}

// bounded runs fn(0..n-1) concurrently, at most depth at a time, and
// returns when every call is done.
func bounded(depth, n int, fn func(i int)) {
	sem := make(chan struct{}, depth)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// localVecs is the target-local scatter list of the pieces idxs.
func localVecs(pieces []piece, idxs []int) []adio.Vec {
	vecs := make([]adio.Vec, len(idxs))
	for k, i := range idxs {
		vecs[k] = adio.Vec{Off: pieces[i].lOff, Buf: pieces[i].buf}
	}
	return vecs
}

type opResult struct {
	n   int
	err error
}

// spread distributes the byte total of one vectored exchange over the
// pieces it carried. The far side fills segments in order and stops at the
// first short one, so the count is dealt greedily in that order and err
// (nil when the exchange was clean or merely hit EOF) lands on the first
// piece that came up short — or on the last one when every byte was
// acknowledged yet the exchange still failed, e.g. a transport tear after
// the final frame's reply was consumed.
func spread(pieces []piece, idxs []int, n int, err error, results []opResult) {
	for _, i := range idxs {
		got := min(n, len(pieces[i].buf))
		n -= got
		results[i].n = got
		if err != nil && got < len(pieces[i].buf) {
			results[i].err, err = err, nil
		}
	}
	if err != nil {
		results[idxs[len(idxs)-1]].err = err
	}
}

// prefix folds a plan's per-piece results into the (n, err) a driver call
// returns: n is the contiguous prefix confirmed in plan order — pieces past
// the first failure are excluded even if they completed out of order — and
// err is the first hard error, or io.ErrShortWrite / io.EOF when the
// prefix merely ends early. A read's io.EOF is a result, not a failure.
func prefix(pieces []piece, results []opResult, write bool) (int, error) {
	verb, short := "read", io.EOF
	if write {
		verb, short = "write", io.ErrShortWrite
	}
	total := 0
	for i, r := range results {
		total += r.n
		if r.err != nil && (write || r.err != io.EOF) {
			return total, fmt.Errorf("core: %s at %d (target %d): %w", verb, pieces[i].gOff, pieces[i].target, r.err)
		}
		if r.n < len(pieces[i].buf) {
			return total, short
		}
	}
	return total, nil
}
