package srb

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"semplar/internal/storage"
)

// modelFile is the reference implementation: a plain byte slice with
// POSIX write/truncate semantics.
type modelFile struct {
	data []byte
}

func (m *modelFile) writeAt(p []byte, off int64) {
	end := off + int64(len(p))
	if end > int64(len(m.data)) {
		grown := make([]byte, end)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:end], p)
}

func (m *modelFile) truncate(size int64) {
	if size <= int64(len(m.data)) {
		m.data = m.data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, m.data)
	m.data = grown
}

// TestModelRandomOps drives a random sequence of operations against a real
// server over the wire and an in-memory model, checking full-file
// equivalence throughout. This is the protocol's conformance test.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			srv := NewMemServer(storage.DeviceSpec{})
			conn := connectTo(t, srv)
			f, err := conn.Open("/model", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			model := &modelFile{}

			check := func(step int) {
				sz, err := f.Size()
				if err != nil {
					t.Fatalf("step %d: size: %v", step, err)
				}
				if sz != int64(len(model.data)) {
					t.Fatalf("step %d: size %d, model %d", step, sz, len(model.data))
				}
				if sz == 0 {
					return
				}
				got := make([]byte, sz)
				if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatalf("step %d: read: %v", step, err)
				}
				if !bytes.Equal(got, model.data) {
					t.Fatalf("step %d: content diverged", step)
				}
			}

			for step := 0; step < 120; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // random write
					off := int64(rng.Intn(20000))
					n := rng.Intn(4000) + 1
					buf := make([]byte, n)
					rng.Read(buf)
					if _, err := f.WriteAt(buf, off); err != nil {
						t.Fatalf("step %d: write: %v", step, err)
					}
					model.writeAt(buf, off)
				case 5, 6: // random read of an arbitrary window
					off := int64(rng.Intn(25000))
					n := rng.Intn(4000) + 1
					got := make([]byte, n)
					rn, err := f.ReadAt(got, off)
					if err != nil && err != io.EOF {
						t.Fatalf("step %d: read: %v", step, err)
					}
					var want []byte
					if off < int64(len(model.data)) {
						end := off + int64(n)
						if end > int64(len(model.data)) {
							end = int64(len(model.data))
						}
						want = model.data[off:end]
					}
					if rn != len(want) || !bytes.Equal(got[:rn], want) {
						t.Fatalf("step %d: read window mismatch (%d vs %d bytes)",
							step, rn, len(want))
					}
				case 7: // truncate
					size := int64(rng.Intn(22000))
					if err := f.Truncate(size); err != nil {
						t.Fatalf("step %d: truncate: %v", step, err)
					}
					model.truncate(size)
				case 8: // vectored write: 2-3 ascending, disjoint segments
					segs := make([]WriteSeg, 2+rng.Intn(2))
					off := int64(rng.Intn(20000))
					for i := range segs {
						buf := make([]byte, rng.Intn(1000)+1)
						rng.Read(buf)
						segs[i] = WriteSeg{Off: off, Data: buf}
						off += int64(len(buf) + rng.Intn(500))
					}
					if _, err := f.WriteAtVec(segs); err != nil {
						t.Fatalf("step %d: vectored write: %v", step, err)
					}
					for _, sg := range segs {
						model.writeAt(sg.Data, sg.Off)
					}
				case 9: // full verification
					check(step)
				}
			}
			check(-1)
		})
	}
}

// TestModelMultiConn runs the random-ops model across several connections
// to the same file, serialized by a coin flip, verifying that data written
// through any session's handle is shared.
func TestModelMultiConn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	srv := NewMemServer(storage.DeviceSpec{})
	conns := make([]*Conn, 3)
	files := make([]*File, 3)
	for i := range conns {
		conns[i] = connectTo(t, srv)
		f, err := conns[i].Open("/shared-model", O_RDWR|O_CREATE, "")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	model := &modelFile{}
	for step := 0; step < 100; step++ {
		f := files[rng.Intn(len(files))]
		off := int64(rng.Intn(10000))
		buf := make([]byte, rng.Intn(2000)+1)
		rng.Read(buf)
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		model.writeAt(buf, off)
	}
	got := make([]byte, len(model.data))
	if _, err := files[0].ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model.data) {
		t.Fatal("multi-connection writes diverged from model")
	}
}
