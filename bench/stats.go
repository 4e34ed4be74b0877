package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule, and how many samples lie beyond it. sorted must be
// ascending and non-empty.
func percentile(sorted []int64, p float64) (value int64, beyond int) {
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples; the epsilon keeps 99.9 % of 1000 at 999, not 1000.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailCandidates are the percentiles the tail rule chooses among, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the number is one or two outliers, not a tail.
const minBeyond = 10

// tailRule returns the highest candidate percentile that leaves at least
// minBeyond of n samples beyond it, or 50 when none does. Workloads fix
// their tail percentile so it is the same on every commit; the rule is the
// cross-check printed next to the sample count.
func tailRule(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianInt is the nearest-rank median; 0 for no samples.
func medianInt(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	m, _ := percentile(sortedCopy(v), 50)
	return m
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of v by the same
// exclusive method as Python's statistics.quantiles(v, n=4), which is what
// the acceptance procedure uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// position k*(n+1)/4 on a 1-based scale, linearly interpolated
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iv is a half-open time interval [start, end) in nanoseconds.
type iv struct{ start, end int64 }

// ivset is a sorted list of disjoint intervals.
type ivset []iv

// unionOf merges possibly overlapping or adjacent intervals into an ivset.
// It sorts in place.
func unionOf(in []iv) ivset {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	out := ivset{in[0]}
	for _, x := range in[1:] {
		last := &out[len(out)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func (s ivset) length() int64 {
	var n int64
	for _, x := range s {
		if x.end > x.start {
			n += x.end - x.start
		}
	}
	return n
}

// overlap is the total length of a ∩ b.
func overlap(a, b ivset) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].start, a[i].end
		if b[j].start > lo {
			lo = b[j].start
		}
		if b[j].end < hi {
			hi = b[j].end
		}
		if hi > lo {
			n += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return n
}
