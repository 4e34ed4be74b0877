// Package stats holds the small measurement vocabulary shared by the
// workloads and the experiment harness: phase accounting, bandwidth
// conversion and printable series.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phases records how one run's wall time divides between computation and
// I/O, as measured around the respective code sections.
type Phases struct {
	Compute time.Duration
	IO      time.Duration
}

// Expected is the best achievable execution time with perfect overlap:
// the larger of the two phases (Section 7.1's model).
func (p Phases) Expected() time.Duration {
	if p.Compute > p.IO {
		return p.Compute
	}
	return p.IO
}

// MbPerSec converts a byte count over a duration to megabits per second —
// the unit of Figures 8 and 9.
func MbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / d.Seconds()
}

// Series is one plotted line: y values over integer x (processor counts).
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x int, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// At returns the y value for x, or NaN-like zero and false.
func (s *Series) At(x int) (float64, bool) {
	for i, xi := range s.X {
		if xi == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Mean is the average of the series' y values.
func (s *Series) Mean() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Y {
		sum += v
	}
	return sum / float64(len(s.Y))
}

// MeanRatio returns mean(num.Y/den.Y) over x values both series share —
// the paper's "average improvement" across processor counts.
func MeanRatio(num, den *Series) float64 {
	var sum float64
	var n int
	for i, x := range num.X {
		if d, ok := den.At(x); ok && d != 0 {
			sum += num.Y[i] / d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table renders series against a shared x column, in the spirit of the
// paper's figures.
func Table(title, xLabel, yLabel string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: %s)\n", title, yLabel)
	// Collect all x values.
	seen := map[int]bool{}
	for _, s := range series {
		for _, x := range s.X {
			seen[x] = true
		}
	}
	xs := make([]int, 0, len(seen))
	for x := range seen {
		xs = append(xs, x)
	}
	sort.Ints(xs)

	fmt.Fprintf(&b, "%-8s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%22s", s.Label)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-8d", x)
		for _, s := range series {
			if y, ok := s.At(x); ok {
				fmt.Fprintf(&b, "%22.2f", y)
			} else {
				fmt.Fprintf(&b, "%22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
