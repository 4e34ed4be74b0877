package main

// jacobi is the compute phase of ckpt_wan: a fixed amount of work — a
// constant number of Jacobi sweeps over a constant grid — so that a step's
// compute time depends on the host, never on the I/O stack. It is timed on
// every step; the benchmark reports overlap against the measured times, not
// against a nominal one.
type jacobi struct {
	a, b []float64
}

const (
	jacobiN      = 256 // interior grid dimension
	jacobiSweeps = 270 // sweeps per step
)

func newJacobi() *jacobi {
	w := jacobiN + 2
	j := &jacobi{a: make([]float64, w*w), b: make([]float64, w*w)}
	for i := 0; i < w; i++ {
		j.a[i], j.b[i] = 1, 1 // hot top edge
	}
	return j
}

func (j *jacobi) step() {
	w := jacobiN + 2
	for s := 0; s < jacobiSweeps; s++ {
		for y := 1; y <= jacobiN; y++ {
			row := j.a[y*w : (y+1)*w]
			up := j.a[(y-1)*w : y*w]
			down := j.a[(y+1)*w : (y+2)*w]
			out := j.b[y*w : (y+1)*w]
			for x := 1; x <= jacobiN; x++ {
				out[x] = 0.25 * (row[x-1] + row[x+1] + up[x] + down[x])
			}
		}
		j.a, j.b = j.b, j.a
	}
}
