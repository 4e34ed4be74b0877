package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPhases(t *testing.T) {
	p := Phases{Compute: 4 * time.Second, IO: 1 * time.Second}
	if p.Expected() != 4*time.Second {
		t.Fatal("expected")
	}
}

func TestBandwidthUnits(t *testing.T) {
	// 1 MB in 1s = 8 Mb/s.
	if got := MbPerSec(1e6, time.Second); math.Abs(got-8) > 1e-9 {
		t.Fatalf("MbPerSec = %v", got)
	}
	if MbPerSec(100, 0) != 0 {
		t.Fatal("zero duration")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "sync"
	s.Add(2, 10)
	s.Add(4, 20)
	if v, ok := s.At(4); !ok || v != 20 {
		t.Fatalf("At = %v, %v", v, ok)
	}
	if _, ok := s.At(99); ok {
		t.Fatal("missing x found")
	}
	if s.Mean() != 15 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if (&Series{}).Mean() != 0 {
		t.Fatal("empty mean")
	}
}

func TestMeanRatio(t *testing.T) {
	two := &Series{X: []int{1, 2, 3}, Y: []float64{2, 4, 6}}
	one := &Series{X: []int{1, 2, 3}, Y: []float64{1, 2, 3}}
	if got := MeanRatio(two, one); math.Abs(got-2) > 1e-9 {
		t.Fatalf("ratio = %v", got)
	}
	// Disjoint x: no ratio.
	other := &Series{X: []int{9}, Y: []float64{1}}
	if MeanRatio(two, other) != 0 {
		t.Fatal("disjoint series")
	}
}

func TestTable(t *testing.T) {
	a := &Series{Label: "sync", X: []int{2, 4}, Y: []float64{1.5, 2.5}}
	b := &Series{Label: "async", X: []int{2}, Y: []float64{1.25}}
	out := Table("Fig X", "np", "seconds", a, b)
	for _, want := range []string{"Fig X", "np", "sync", "async", "1.50", "1.25", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
