package main

import (
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/storage"
)

func TestPercentileAndBeyond(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   int64
		beyond int
	}{{50, 500, 500}, {90, 900, 100}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}} {
		got, beyond := percentile(v, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g of 1..1000 = %d with %d beyond, want %d with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if got := medianInt([]int64{9, 1, 5}); got != 5 {
		t.Errorf("medianInt = %d, want 5", got)
	}
	if got := medianInt(nil); got != 0 {
		t.Errorf("medianInt(nil) = %d, want 0", got)
	}
}

// The tail percentile is the highest with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the acceptance procedure computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g, want 1, 4", q1, q3)
	}
}

func TestSameSeedSameOps(t *testing.T) {
	draw := func(w *workload, seed int64) []op {
		next := w.gen(rand.New(rand.NewSource(seed)))
		ops := make([]op, 300)
		for i := range ops {
			ops[i] = next(i)
		}
		return ops
	}
	for _, w := range workloads() {
		a, b, c := draw(w, 7), draw(findWorkload(w.name), 7), draw(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op sequences", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
		for i, o := range a {
			if o.write != (i%2 == 0) {
				t.Fatalf("%s: op %d: writes and reads must alternate", w.name, i)
			}
			end := o.off + int64(o.n)
			if v := o.view; v.BlockLen > 0 {
				end = v.Disp + (int64(o.n)/v.BlockLen-1)*v.Stride + v.BlockLen
			}
			if o.off < 0 || end > w.fileSize {
				t.Fatalf("%s: op %d reaches %d in a %d-byte file", w.name, i, end, w.fileSize)
			}
		}
	}
}

// A strided write must land frame by frame in the shadow and leave the gap
// bytes alone, or the per-read comparison would accept a broken sieve.
func TestShadowStrided(t *testing.T) {
	w := findWorkload("strided_wan")
	sh := newShadow(w.fileSize, 1)
	before := append([]byte(nil), sh.data...)
	next := w.gen(rand.New(rand.NewSource(3)))
	wr := next(0)
	payload := append([]byte(nil), sh.stage(wr)...)
	if !sh.matches(wr, payload) {
		t.Fatal("the shadow does not return what was just staged")
	}
	v := wr.view
	for off := int64(0); off < w.fileSize; off++ {
		rel := off - v.Disp
		inFrame := rel >= 0 && rel < stridedFrames*v.Stride && rel%v.Stride < v.BlockLen
		if !inFrame && sh.data[off] != before[off] {
			t.Fatalf("byte %d outside the view changed", off)
		}
	}
	payload[0] ^= 1
	if sh.matches(wr, payload) {
		t.Fatal("a flipped bit went unnoticed")
	}
}

// selfTime is the subtraction analyze performs at every seam: a span's
// length less the part its children cover.
func selfTime(parent, children ivset) int64 {
	return parent.length() - overlap(parent, children)
}

func TestSelfTime(t *testing.T) {
	parent := ivset{{0, 100}}
	for _, c := range []struct {
		name     string
		children []iv
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested", []iv{{10, 30}}, 80},
		{"adjacent", []iv{{10, 30}, {30, 50}}, 60},
		{"overlapping counted once", []iv{{10, 40}, {30, 50}}, 60},
		{"nested in a sibling", []iv{{10, 50}, {20, 30}}, 60},
		{"sticking out of the parent", []iv{{-20, 10}, {90, 150}}, 80},
		{"outside the parent", []iv{{200, 300}}, 100},
	} {
		if got := selfTime(parent, unionOf(c.children)); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	// Two parents (an op with two driver calls) and children in both.
	parents := unionOf([]iv{{0, 10}, {20, 30}})
	if got := selfTime(parents, unionOf([]iv{{2, 4}, {22, 30}})); got != 10 {
		t.Errorf("two parents: self time %d, want 10", got)
	}
}

// wireFile is a stand-in driver handle: one write is a 16-byte header and
// the payload in two connection writes, then an 8-byte acknowledgement.
type wireFile struct {
	adio.File
	c net.Conn
}

func (f wireFile) WriteAt(p []byte, off int64) (int, error) {
	if _, err := f.c.Write(make([]byte, 16)); err != nil {
		return 0, err
	}
	if _, err := f.c.Write(p); err != nil {
		return 0, err
	}
	_, err := f.c.Read(make([]byte, 8))
	return len(p), err
}

// scripted drives n writes of k payload bytes through probes D, C, S and T
// by hand: the driver sends header and payload, the server reads them,
// stores the payload and acknowledges.
func scripted(t *testing.T, n, k int) *pass {
	t.Helper()
	rec := newRecorder()
	rec.on.Store(true)
	cRaw, sRaw := net.Pipe()
	c := probeClientConn(cRaw, rec, "x")
	s := probeServerConn(sRaw, rec, "x")
	st := probeSto(storage.NewMemStore(), rec)
	obj, err := st.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{w: &workload{depth1: true, tailPct: 99}, rec: rec, env: &env{}}
	served := make(chan error, 1)
	go func() {
		buf := make([]byte, 16+k)
		for i := 0; i < n; i++ {
			for got := 0; got < len(buf); {
				m, err := s.Read(buf[got:])
				if err != nil {
					served <- err
					return
				}
				got += m
			}
			if _, err := obj.WriteAt(buf[16:], int64(i*k)); err != nil {
				served <- err
				return
			}
			if _, err := s.Write(buf[:8]); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	f := &probeFile{File: wireFile{c: c}, rec: rec}
	payload := make([]byte, k)
	p.windowStart = now()
	for i := 0; i < n; i++ {
		p.publishOp(i + 1)
		smp := sample{write: true, bytes: int32(k), start: now()}
		if _, err := f.WriteAt(payload, int64(i*k)); err != nil {
			t.Fatal(err)
		}
		smp.end = now()
		p.samples = append(p.samples, smp)
	}
	p.windowEnd = now()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	p.after.server.Requests = int64(n)
	p.after.conns = rec.conns.Load()
	return p
}

func TestProbeArithmetic(t *testing.T) {
	const n, k = 50, 1000
	p := scripted(t, n, k)
	an := p.analyze()
	m := p.perLayer(an, p)
	for name, want := range map[string]float64{
		"srb_client.conn_writes_per_op":            2,
		"srb_client.conn_reads_per_op":             1,
		"srb_client.wire_bytes_up_per_user_byte":   float64(16+k) / k,
		"srb_server.requests_per_op":               1,
		"srb_server.conn_writes_per_req":           1,
		"storage.calls_per_op":                     1,
		"storage.write_bytes_per_user_byte":        1,
		"storage.read_bytes_per_user_byte":         0,
		"transport.conns_opened":                   1,
		"mpiio.driver_calls_per_op":                1,
		"srb_client.wire_bytes_down_per_user_byte": 0, // no user bytes were read
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if an.cBytesDown != 8*n {
		t.Errorf("client read %d bytes, want %d", an.cBytesDown, 8*n)
	}
	// Every op is one complete exchange whose parts nest: storage inside
	// the server's work, that inside the wire interval, that inside the op.
	for i, o := range an.ops {
		if o.t <= 0 || o.t > o.s || o.s > o.w || o.w > o.d || o.d > o.a {
			t.Fatalf("op %d: times do not nest: %+v", i+1, o)
		}
		if sum := o.mpiioSelf() + o.driverSelf() + o.transport() + o.serverSelf() + o.t; sum != o.a {
			t.Fatalf("op %d: self times add up to %d, the op took %d", i+1, sum, o.a)
		}
	}
	if len(an.flights) != n {
		t.Errorf("%d flight samples, want %d", len(an.flights), n)
	}
}

// A reader can return before the writer's call does. The exchange must
// still be recognised, and the server's own Write calls are the
// transport's time, not the server's.
func TestExchangeOrdering(t *testing.T) {
	l := &link{}
	l.client.spans = []span{
		{kind: cWrite, start: 100, end: 130, op: 1},
		{kind: cRead, start: 0, end: 205, op: 1}, // returns before the server's write does
		{kind: cWrite, start: 300, end: 310, op: 2},
		{kind: cRead, start: 206, end: 420, op: 2},
	}
	l.server.spans = []span{
		{kind: sRead, start: 0, end: 120, op: 1}, // returns before the client's write does
		{kind: sWrite, start: 200, end: 210, op: 1},
		{kind: sRead, start: 121, end: 320, op: 2},
		{kind: sWrite, start: 350, end: 360, op: 2},
		{kind: sWrite, start: 380, end: 400, op: 2},
	}
	xs := exchangesOf(l)
	if len(xs) != 2 || !xs[0].complete() || !xs[1].complete() {
		t.Fatalf("exchanges = %+v, want two complete ones", xs)
	}
	if got := unionOf(xs[0].work).length(); got != 80 {
		t.Errorf("exchange 1: server at work for %d, want 80 (120→200)", got)
	}
	if got := unionOf(xs[1].work).length(); got != 50 {
		t.Errorf("exchange 2: server at work for %d, want 50 (320→350 and 360→380)", got)
	}
	if xs[1].op != 2 || xs[1].cw0 != 300 || xs[1].crEnd != 420 {
		t.Errorf("exchange 2 = %+v", xs[1])
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		want   string
	}{
		{"same", steady, "higher", "ok"},
		{"5% slower, inside the bound", []float64{95, 96, 94, 95, 95}, "higher", "ok"},
		{"20% slower", []float64{80, 81, 79, 80, 80}, "higher", "regressed"},
		{"20% higher is worse for a latency", []float64{120, 121, 119, 120, 120}, "lower", "regressed"},
		{"20% higher is better for a rate", []float64{120, 121, 119, 120, 120}, "higher", "ok"},
		{"too noisy to call", []float64{60, 140, 100, 80, 120}, "higher", "unresolved"},
	} {
		if got, _, _ := verdict(steady, c.new, metricSpec{Better: c.better, Bound: 0.10}); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A metric only one side has fails the comparison.
	if got, _, _ := verdict(steady, nil, metricSpec{Better: "higher", Bound: 0.10}); got != "missing" {
		t.Errorf("a metric the new file lacks is %s, want missing", got)
	}
	// Absolute rules: failed_ops_share may not rise at all.
	share := metricSpec{Better: "lower", Bound: 0, Absolute: true}
	if got, _, _ := verdict([]float64{0, 0}, []float64{0, 0.001}, share); got != "regressed" {
		t.Errorf("a rise in failed_ops_share is %s, want regressed", got)
	}
	overlap := metricSpec{Better: "higher", Bound: 0.05, Absolute: true}
	if got, _, _ := verdict([]float64{0.90, 0.91}, []float64{0.88, 0.87}, overlap); got != "ok" {
		t.Errorf("overlap_efficiency −0.03 is %s, want ok", got)
	}
}
