package stats

import (
	"testing"
	"time"
)

// Edge cases for the phase model: the simulator occasionally produces
// degenerate runs (an all-compute warmup, an instantaneous I/O phase), and
// the model's floor must still be the larger phase.

func TestPhasesEdgeCases(t *testing.T) {
	tests := []struct {
		name     string
		p        Phases
		expected time.Duration
	}{
		{"zero phases", Phases{}, 0},
		{"compute only", Phases{Compute: 3 * time.Second}, 3 * time.Second},
		{"io only", Phases{IO: 3 * time.Second}, 3 * time.Second},
		{"perfectly balanced", Phases{Compute: 2 * time.Second, IO: 2 * time.Second}, 2 * time.Second},
		{"io dominant", Phases{Compute: time.Second, IO: 9 * time.Second}, 9 * time.Second},
		{"nanosecond phases", Phases{Compute: 1, IO: 1}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Expected(); got != tt.expected {
				t.Errorf("Expected() = %v, want %v", got, tt.expected)
			}
		})
	}
}
