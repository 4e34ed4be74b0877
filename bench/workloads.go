package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"semplar/internal/cluster"
	"semplar/internal/mpiio"
	"semplar/internal/trace"
)

// workload is one row of the benchmark: a stack, an environment and a
// seeded op sequence. All of them are closed loops driven by one
// application thread over at most two connections — the users of this
// library are MPI ranks that wait for their own I/O.
type workload struct {
	name      string
	env       string // one-line description of stack and environment
	transport string // transportTCP or transportSim: what the bytes cross

	// tailPct is the tail percentile reported as *_tail_us. It is fixed per
	// workload — the highest with at least ten samples beyond it in a
	// default window — so the number means the same on every commit.
	tailPct float64
	// depth1 marks workloads whose ops never overlap, so per-layer self
	// times along one op add up to its latency and are reported.
	depth1 bool
	// async marks the Laplace-style loop (nonblocking ops hidden behind a
	// compute kernel); everything else issues blocking calls.
	async bool
	// procs is the GOMAXPROCS the workload runs under; 0 leaves the
	// process's own.
	procs int

	fileSize int64
	opts     fileOptions
	warmOps  int
	build    func(rec *recorder, tr *trace.Tracer) (*env, error)
	// gen returns the op sequence drawn from rng: call i yields op i.
	gen func(rng *rand.Rand) func(i int) op
}

// op is one application call (or, for ckpt_wan, the I/O of one step).
type op struct {
	write bool
	off   int64      // logical offset passed to the call
	n     int        // user payload bytes
	view  mpiio.View // zero = contiguous; strided ops set it before the call
	seed  uint64     // payload seed of a write
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// blockCycle alternates write and read over nblocks blocks of size bytes:
// writes walk the file sequentially from a seeded start and wrap, and each
// read fetches the block written half a file earlier, so it never hits the
// block the server touched last.
func blockCycle(size, nblocks int) func(*rand.Rand) func(int) op {
	return func(rng *rand.Rand) func(int) op {
		start := rng.Intn(nblocks)
		return func(i int) op {
			o := op{write: i%2 == 0, n: size, seed: rng.Uint64()}
			blk := (start + i/2) % nblocks
			if !o.write {
				blk = (blk + nblocks/2) % nblocks
			}
			o.off = int64(blk) * int64(size)
			return o
		}
	}
}

// Strided record layout of strided_wan: 16 regions of 128 frames of 4 KiB.
const (
	stridedRegions = 16
	stridedFrames  = 128
	stridedStride  = 4 * kib
	stridedRegion  = stridedFrames * stridedStride // 512 KiB
	denseBlock     = 2 * kib                       // density 0.5: data sieving
	sparseBlock    = 512                           // density 0.125: list I/O
)

func simEnv(spec func() cluster.Spec, shards int) func(*recorder, *trace.Tracer) (*env, error) {
	return func(rec *recorder, tr *trace.Tracer) (*env, error) {
		return newSimEnv(spec(), shards, rec, tr), nil
	}
}

// workloads returns the five rows in presentation order. The table in
// README.md says why each exists; BENCHMARK.json has the one-line version.
func workloads() []*workload {
	return []*workload{
		{
			name:    "smallops_lan",
			env:     "SRBFS over loopback TCP, 1 stream, GOMAXPROCS 1; alternating blocking 512 B WriteAt/ReadAt at seeded offsets in 16 MiB",
			tailPct: 99,
			depth1:  true,
			// At depth 1 client and server take turns anyway. On a second P
			// every hand-off becomes a cross-CPU wake-up, which on a virtual
			// machine costs more than the op itself and swings by a factor
			// of 1.7 from second to second; on one P the op's cost is the
			// program's own and repeats to a percent.
			procs:     1,
			fileSize:  16 * mib,
			opts:      fileOptions{streams: 1},
			warmOps:   20000,
			build:     newLoopbackEnv,
			transport: transportTCP,
			gen: func(rng *rand.Rand) func(int) op {
				return func(i int) op {
					return op{write: i%2 == 0, n: 512, off: int64(rng.Intn(16*mib/512)) * 512, seed: rng.Uint64()}
				}
			},
		},
		{
			name:      "bulk_lan",
			env:       "SRBFS over loopback TCP, 2 streams, 1 MiB stripe; alternating blocking 8 MiB WriteAt/ReadAt, sequential wrap over 64 MiB",
			tailPct:   99,
			fileSize:  64 * mib,
			opts:      fileOptions{streams: 2},
			warmOps:   48,
			build:     newLoopbackEnv,
			transport: transportTCP,
			gen:       blockCycle(8*mib, 8),
		},
		{
			name:      "ckpt_wan",
			env:       "SRBFS over netsim TG-NCSA/10 (1.5 ms one-way, 64 KiB window), 2 streams, 128 KiB stripe, 1 I/O thread; Jacobi step, Wait, then IWriteAt / IReadAt of 1 MiB",
			tailPct:   95,
			depth1:    true,
			async:     true,
			fileSize:  8 * mib,
			opts:      fileOptions{streams: 2, stripeSize: 128 * kib},
			warmOps:   4,
			build:     simEnv(wan, 1),
			transport: transportSim,
			gen: func(rng *rand.Rand) func(int) op {
				// Even steps checkpoint into the next of 8 slots; odd steps
				// prefetch an earlier checkpoint chosen by the seed.
				return func(i int) op {
					o := op{write: i%2 == 0, n: mib, seed: rng.Uint64()}
					if o.write {
						o.off = int64(i/2%8) * mib
					} else {
						o.off = int64(rng.Intn(8)) * mib
					}
					return o
				}
			},
		},
		{
			name:      "strided_wan",
			env:       "mpiio views over SRBFS over netsim TG-NCSA/10, 2 streams, 128 KiB stripe; alternating 128-record dense-view write (2048/4096) and sparse-view read (512/4096) over 16 regions of 512 KiB",
			tailPct:   95,
			depth1:    true,
			fileSize:  stridedRegions * stridedRegion,
			opts:      fileOptions{streams: 2, stripeSize: 128 * kib},
			warmOps:   4,
			build:     simEnv(wan, 1),
			transport: transportSim,
			gen: func(rng *rand.Rand) func(int) op {
				return func(i int) op {
					disp := int64(rng.Intn(stridedRegions)) * stridedRegion
					if i%2 == 0 {
						return op{write: true, n: stridedFrames * denseBlock, seed: rng.Uint64(),
							view: mpiio.View{Disp: disp, BlockLen: denseBlock, Stride: stridedStride}}
					}
					// A seeded offset inside the frame, so sparse reads also
					// cover the gap bytes a sieved write must have preserved.
					disp += int64(rng.Intn((stridedStride-sparseBlock)/sparseBlock+1)) * sparseBlock
					return op{n: stridedFrames * sparseBlock,
						view: mpiio.View{Disp: disp, BlockLen: sparseBlock, Stride: stridedStride}}
				}
			},
		},
		{
			name:      "fed_bulk",
			env:       "FedFS over netsim campus (200 us one-way, 256 KiB window, 1 GB/s link), 2 shards at 150/400 MB/s write/read, width 2, 1 stream per shard, 256 KiB stripe; alternating blocking 4 MiB WriteAt/ReadAt over 32 MiB",
			tailPct:   95,
			fileSize:  32 * mib,
			opts:      fileOptions{streams: 1, stripeSize: 256 * kib, fedWidth: 2},
			warmOps:   4,
			build:     simEnv(campus, 2),
			transport: transportSim,
			gen:       blockCycle(4*mib, 8),
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fill writes a xorshift64* stream seeded by seed over p.
func fill(p []byte, seed uint64) {
	x := seed | 1
	for len(p) >= 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(p, x*0x2545F4914F6CDD1D)
		p = p[8:]
	}
	for i := range p {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		p[i] = byte(x)
	}
}

// shadow is the local copy of what the remote file must contain. Every
// write is recorded here before it is issued; reads are compared against
// it and the whole file is checked against it after the window.
type shadow struct {
	data    []byte
	scratch []byte // staging for strided payloads
}

func newShadow(size int64, seed uint64) *shadow {
	s := &shadow{data: make([]byte, size), scratch: make([]byte, stridedFrames*denseBlock)}
	fill(s.data, seed)
	return s
}

// stage records write o in the shadow and returns the bytes to hand to the
// call. Contiguous payloads are generated in place and returned as a slice
// of the shadow itself (no copy; the caller must not restage the same range
// while the write is in flight); strided payloads are scattered frame by
// frame.
func (s *shadow) stage(o op) []byte {
	if o.view.BlockLen == 0 {
		p := s.data[o.off : o.off+int64(o.n)]
		fill(p, o.seed)
		return p
	}
	p := s.scratch[:o.n]
	fill(p, o.seed)
	s.eachFrame(o, func(file, user []byte) { copy(file, user) }, p)
	return p
}

// matches reports whether got is what read o must return.
func (s *shadow) matches(o op, got []byte) bool {
	if o.view.BlockLen == 0 {
		return bytes.Equal(got, s.data[o.off:o.off+int64(o.n)])
	}
	ok := true
	s.eachFrame(o, func(file, user []byte) { ok = ok && bytes.Equal(file, user) }, got)
	return ok
}

// eachFrame pairs every view frame's bytes in the file image with the
// matching piece of the user buffer.
func (s *shadow) eachFrame(o op, fn func(file, user []byte), user []byte) {
	v := o.view
	for done := int64(0); done < int64(len(user)); done += v.BlockLen {
		logical := o.off + done
		phys := v.Disp + logical/v.BlockLen*v.Stride + logical%v.BlockLen
		fn(s.data[phys:phys+v.BlockLen], user[done:done+v.BlockLen])
	}
}

func (s *shadow) sha256() string {
	sum := sha256.Sum256(s.data)
	return hex.EncodeToString(sum[:])
}
