package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"semplar/internal/core"
	"semplar/internal/mpiio"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// sample is seam A's record of one op: the latency interval users see
// (the blocking call, or submit→Request.Done() for a nonblocking one) and,
// for the async loop, where the compute thread spent the step.
type sample struct {
	start, end int64
	bytes      int32
	write      bool
	failed     bool
}

// step is what the async loop adds to a sample, in a parallel slice.
type step struct {
	compute   int64 // duration of the kernel run of the step that issued the op
	submitEnd int64 // return of the nonblocking call
	waitStart int64 // the Wait that collected the op, one step later
	waitEnd   int64
}

// slice is one of the equal stretches the timed window is cut into. Rates
// are computed per slice and reported as the median over slices: a stretch
// in which the host took the CPU away drags a mean, not a median.
type slice struct {
	first, end  int // samples[first:end]
	start, stop int64
	cpu         int64 // process CPU spent in the slice, less the compute kernel's
}

// slicesPerWindow is how many slices a window is cut into.
const slicesPerWindow = 20

// minOps is the least a window runs however short it is, so that a smoke
// window on a slow build (the race detector) still sees both op kinds.
const minOps = 4

// inflight is a nonblocking request on its way: the watcher goroutine
// stamps done when Request.Done() closes, which the compute thread cannot
// observe itself while it is inside the kernel.
type inflight struct {
	req  *core.Request
	op   op
	idx  int // index into pass.samples and pass.steps
	done atomic.Int64
}

// counters are the public counters read from outside at both edges of the
// timed window; the window's figures are the differences.
type counters struct {
	mem     runtime.MemStats
	cpu     int64 // process user+sys CPU, nanoseconds
	server  srb.ServerStats
	file    mpiio.FileStats
	shardWr []int64 // bytes committed per shard
	conns   int64   // connections dialed so far, traced pass only
}

// pass is one set-up, timed window and tear-down of one workload.
type pass struct {
	w      *workload
	seed   int64
	smoke  bool
	rec    *recorder     // nil = probes are not installed
	tracer *trace.Tracer // nil = the program's own tracing stays off
	clock  *replayClock  // tracer's clock; scripted when spans are exported

	env      *env
	f        *mpiio.File
	sh       *shadow
	next     func(int) op
	view     mpiio.View // the view last installed on f
	opIdx    int
	readBuf  []byte
	cal      [2][]int64 // T_io calibration: blocking 1 MiB ops of this set-up, ns: [0] reads, [1] writes
	tio      [2]int64   // T_io per kind: the median of the calibration samples
	warmRate float64    // ops per second seen during warm-up; sizes the sample log

	baseGoroutines int
	prevProcs      int // GOMAXPROCS to restore at teardown, if the workload set its own
	setupNs        int64
	windowStart    int64
	windowEnd      int64
	samples        []sample
	steps          []step // async loop only, parallel to samples
	slices         []slice
	open           slice // the slice being filled; its cpu is the reading at its start
	sliceLen       int64
	kernelNs       int64 // thread CPU the compute kernel used inside the window
	before, after  counters

	// filled by finish
	faults     core.FaultStats
	pingRTT    int64
	verifyErr  error
	hygiene    []string
	leaked     int
	handlesEnd int64
}

func newPass(w *workload, seed int64, traced, smoke bool) *pass {
	p := &pass{w: w, seed: seed, smoke: smoke}
	if traced {
		p.rec = newRecorder()
		// The program's existing spans ride along into the same trace file;
		// no metric depends on them.
		p.clock = &replayClock{}
		p.tracer = trace.NewWith(p.clock.read)
	}
	return p
}

// setup brings the servers up, opens and prefills the file, warms the
// lazily created parts of the stack (streams, I/O thread, buffer pools) and,
// for the async loop, calibrates T_io. Everything here is setup_s.
func (p *pass) setup() error {
	p.baseGoroutines = runtime.NumGoroutine()
	if p.w.procs > 0 {
		p.prevProcs = runtime.GOMAXPROCS(p.w.procs)
	}
	t0 := now()
	env, err := p.w.build(p.rec, p.tracer)
	if err != nil {
		return err
	}
	p.env = env
	if p.f, err = env.open(p.w.opts); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	rng := rand.New(rand.NewSource(p.seed))
	p.sh = newShadow(p.w.fileSize, rng.Uint64())
	p.next = p.w.gen(rng)
	p.readBuf = make([]byte, 8*mib)

	// Size the file first, as an application that knows its extent would
	// (MPI_File_set_size): the store then allocates once instead of growing
	// under the prefill, which is the noisiest thing a set-up can do.
	if err := p.f.SetSize(p.w.fileSize); err != nil {
		return fmt.Errorf("set size: %w", err)
	}
	const chunk = 4 * mib
	for off := int64(0); off < p.w.fileSize; off += chunk {
		end := off + chunk
		if end > p.w.fileSize {
			end = p.w.fileSize
		}
		if n, err := p.f.WriteAt(p.sh.data[off:end], off); err != nil || int64(n) != end-off {
			return fmt.Errorf("prefill at %d: wrote %d: %v", off, n, err)
		}
	}

	warm := p.w.warmOps
	if p.smoke && warm > 4 {
		warm = 4
	}
	warmStart := now()
	for i := 0; i < warm; i++ {
		o := p.nextOp()
		failed := false
		if p.w.async {
			_, failed = p.waitFor(p.submit(o, p.buffer(o), -1))
		} else {
			failed = p.blocking(o).failed
		}
		if failed {
			return fmt.Errorf("warm-up op %d failed", i)
		}
	}
	p.warmRate = ratio(float64(warm), float64(now()-warmStart)/1e9)
	if p.w.async {
		// T_io: the blocking cost of the same 1 MiB transfer, per kind.
		rounds := 16
		if p.smoke {
			rounds = 2
		}
		for i := 0; i < rounds; i++ {
			s := p.blocking(p.nextOp())
			if s.failed {
				return fmt.Errorf("T_io calibration op %d failed", i)
			}
			p.cal[kindOf(s.write)] = append(p.cal[kindOf(s.write)], s.end-s.start)
		}
		p.tio = [2]int64{medianInt(p.cal[0]), medianInt(p.cal[1])}
	}
	p.setupNs = now() - t0
	return nil
}

func (p *pass) nextOp() op {
	o := p.next(p.opIdx)
	p.opIdx++
	return o
}

// blocking issues one blocking call and checks its result.
func (p *pass) blocking(o op) sample {
	if o.view != p.view {
		if err := p.f.SetView(o.view); err != nil {
			return sample{write: o.write, bytes: int32(o.n), failed: true}
		}
		p.view = o.view
	}
	s := sample{write: o.write, bytes: int32(o.n)}
	data := p.buffer(o)
	var n int
	var err error
	s.start = now()
	if o.write {
		n, err = p.f.WriteAt(data, o.off)
	} else {
		n, err = p.f.ReadAt(data, o.off)
	}
	s.end = now()
	s.failed = err != nil || n != o.n || (!o.write && !p.sh.matches(o, data))
	return s
}

// submit issues one nonblocking call on data, which the caller staged (a
// write) or lends as the destination (a read). idx is the sample slot the
// request reports into (-1 during warm-up).
func (p *pass) submit(o op, data []byte, idx int) *inflight {
	fl := &inflight{op: o, idx: idx}
	if o.write {
		fl.req = p.f.IWriteAt(data, o.off)
	} else {
		fl.req = p.f.IReadAt(data, o.off)
	}
	return fl
}

// buffer returns the bytes op o moves: the staged payload of a write, the
// destination of a read.
func (p *pass) buffer(o op) []byte {
	if o.write {
		return p.sh.stage(o)
	}
	return p.readBuf[:o.n]
}

// waitFor blocks in Wait and checks the result of a nonblocking op.
func (p *pass) waitFor(fl *inflight) (st step, failed bool) {
	st.waitStart = now()
	n, err := fl.req.Wait()
	st.waitEnd = now()
	failed = err != nil || n != fl.op.n ||
		(!fl.op.write && !p.sh.matches(fl.op, p.readBuf[:fl.op.n]))
	return st, failed
}

func (p *pass) snapshot(c *counters) {
	runtime.ReadMemStats(&c.mem)
	c.cpu = processCPU()
	c.server = p.env.serverTotals()
	c.file = p.f.Stats()
	if p.rec != nil {
		c.conns = p.rec.conns.Load()
	}
	c.shardWr = c.shardWr[:0]
	for _, sh := range p.env.shards {
		c.shardWr = append(c.shardWr, sh.srv.Stats().BytesWritten)
	}
}

// rusageThread is Linux's RUSAGE_THREAD: the calling OS thread only. The
// benchmark is Linux-only through it and says so in its README; a tagged
// fallback file is not an option, because `make lint` loads every file of a
// package whatever its build constraint.
const rusageThread = 1

// processCPU is the user+sys CPU time of the whole process, in nanoseconds.
func processCPU() int64 { return cpuTime(syscall.RUSAGE_SELF) }

// threadCPU is the same for the calling OS thread alone.
func threadCPU() int64 { return cpuTime(rusageThread) }

// cpuTime is 0 if the kernel refuses.
func cpuTime(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// window runs the timed loop for d. Probes record only inside it.
func (p *pass) window(d time.Duration) {
	// Room for twice the warm-up rate, so the log does not grow — and show
	// up as the program's allocations — in the middle of the window.
	p.samples = make([]sample, 0, int(2*p.warmRate*d.Seconds())+1024)
	p.snapshot(&p.before)
	if p.rec != nil {
		p.rec.on.Store(true)
	}
	p.sliceLen = int64(d) / slicesPerWindow
	p.windowStart = now()
	p.slices = nil
	p.open = slice{start: p.windowStart, cpu: processCPU()}
	deadline := p.windowStart + int64(d)
	if p.w.async {
		p.stepLoop(deadline)
	} else {
		for now() < deadline || len(p.samples) < minOps {
			o := p.nextOp()
			p.publishOp(len(p.samples) + 1)
			s := p.blocking(o)
			p.samples = append(p.samples, s)
			p.endOfOp(s.end)
		}
	}
	p.windowEnd = now()
	// The stretch left over counts if it is the only one or a decent size.
	if p.open.first < len(p.samples) && (len(p.slices) == 0 || p.windowEnd-p.open.start >= p.sliceLen/2) {
		p.closeSlice(p.windowEnd)
	}
	if p.rec != nil {
		p.rec.on.Store(false)
		p.rec.op.Store(0)
	}
	p.snapshot(&p.after)
}

// endOfOp closes the open slice once it is long enough and holds as many
// writes as reads (ops alternate, and the two kinds cost differently).
func (p *pass) endOfOp(t int64) {
	if t-p.open.start >= p.sliceLen && (len(p.samples)-p.open.first)%2 == 0 {
		p.closeSlice(t)
	}
}

func (p *pass) closeSlice(t int64) {
	// The compute kernel's CPU is the benchmark's own, not the program's.
	cpu := processCPU() - p.kernelNs
	sl := p.open
	sl.end, sl.stop, sl.cpu = len(p.samples), t, cpu-sl.cpu
	p.slices = append(p.slices, sl)
	p.open = slice{first: sl.end, start: t, cpu: cpu}
}

// publishOp is seam A assigning the op id every probe below stamps on its
// spans.
func (p *pass) publishOp(id int) {
	if p.rec != nil {
		p.rec.op.Store(int32(id))
	}
}

// stepLoop is the Laplace-style loop of ckpt_wan: run the kernel, collect
// the request issued one step ago, issue this step's request. It returns
// the CPU time the kernel itself used, which is the benchmark's own work
// and is kept out of cpu_us_per_op. The compute thread is pinned to its OS
// thread so that time can be read per thread.
func (p *pass) stepLoop(deadline int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	grid := newJacobi()

	// The watcher stamps completion times; the loop itself is inside the
	// kernel when most requests finish. One request is in flight at a time.
	watch := make(chan *inflight, 1)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for fl := range watch {
			<-fl.req.Done()
			fl.done.Store(now())
		}
	}()

	var prev *inflight
	collect := func() {
		st, failed := p.waitFor(prev)
		p.steps[prev.idx].waitStart, p.steps[prev.idx].waitEnd = st.waitStart, st.waitEnd
		p.samples[prev.idx].failed = failed
		p.samples[prev.idx].end = st.waitEnd // upper bound; the watcher's stamp replaces it below
	}
	var all []*inflight
	for now() < deadline || len(p.samples) < minOps {
		c0, cpu0 := now(), threadCPU()
		grid.step()
		compute := now() - c0
		p.kernelNs += threadCPU() - cpu0
		if prev != nil {
			collect()
		}
		o := p.nextOp()
		data := p.buffer(o)
		idx := len(p.samples)
		p.publishOp(idx + 1)
		p.steps = append(p.steps, step{compute: compute})
		p.samples = append(p.samples, sample{write: o.write, bytes: int32(o.n), start: now()})
		prev = p.submit(o, data, idx)
		p.steps[idx].submitEnd = now()
		all = append(all, prev)
		watch <- prev
		p.endOfOp(p.steps[idx].submitEnd)
	}
	if prev != nil {
		collect()
	}
	close(watch)
	<-watched
	for _, fl := range all {
		if d := fl.done.Load(); d != 0 && d < p.samples[fl.idx].end {
			p.samples[fl.idx].end = d
		}
	}
}

// finish verifies the whole file against the shadow, reads the remaining
// public counters, tears everything down and runs the hygiene checks. A
// benchmark that silently retried, shed or leaked measured a different
// program, so any of those fails the run.
func (p *pass) finish() {
	p.faults, _ = p.f.FaultStats()
	p.verifyErr = p.verifyFile()

	if conn, err := p.env.admin(); err == nil {
		var rtts []int64
		for i := 0; i < 9; i++ {
			t0 := now()
			if _, err := conn.Ping(); err == nil {
				rtts = append(rtts, now()-t0)
			}
		}
		p.pingRTT = medianInt(rtts)
		if err := conn.Close(); err != nil {
			p.hygiene = append(p.hygiene, fmt.Sprintf("admin close: %v", err))
		}
	} else {
		p.hygiene = append(p.hygiene, fmt.Sprintf("admin dial: %v", err))
	}

	p.teardown()
	tot := p.env.serverTotals()
	p.handlesEnd = tot.OpenHandles
	check := func(name string, v int64) {
		if v != 0 {
			p.hygiene = append(p.hygiene, fmt.Sprintf("%s = %d, want 0", name, v))
		}
	}
	check("proc.goroutines_leaked", int64(p.leaked))
	check("srb_server.open_handles_end", tot.OpenHandles)
	check("srb_server.shed", tot.Shed)
	check("srb_server.rate_limited", tot.RateLimited)
	check("srb_server.protocol_errors", tot.ProtocolError)
	check("retried_ops", p.faults.RetriedOps)
	check("reconnects", p.faults.Reconnects)
}

// teardown closes the file and the servers and counts goroutines that did
// not go away.
func (p *pass) teardown() {
	if err := p.f.Close(); err != nil {
		p.hygiene = append(p.hygiene, fmt.Sprintf("file close: %v", err))
	}
	if err := p.env.close(); err != nil {
		p.hygiene = append(p.hygiene, err.Error())
	}
	// Connection reader goroutines exit on their own once they see EOF.
	for wait := time.Millisecond; ; wait *= 2 {
		p.leaked = runtime.NumGoroutine() - p.baseGoroutines
		if p.leaked <= 0 || wait > time.Second {
			break
		}
		time.Sleep(wait)
	}
	if p.leaked < 0 {
		p.leaked = 0
	}
	if p.prevProcs > 0 {
		runtime.GOMAXPROCS(p.prevProcs)
	}
}

// verifyFile checks the remote file against the shadow: by server-side
// SHA-256 on SRBFS, and by a full read-back on FedFS, whose object is split
// into per-shard slot files no single server can hash.
func (p *pass) verifyFile() error {
	if p.w.opts.fedWidth > 0 {
		const chunk = 4 * mib
		for off := int64(0); off < p.w.fileSize; off += chunk {
			o := op{off: off, n: chunk}
			buf := p.readBuf[:chunk]
			if n, err := p.f.ReadAt(buf, off); err != nil || n != chunk {
				return fmt.Errorf("read-back at %d: read %d: %v", off, n, err)
			}
			if !p.sh.matches(o, buf) {
				return fmt.Errorf("read-back at %d differs from the shadow copy", off)
			}
		}
		return nil
	}
	conn, err := p.env.admin()
	if err != nil {
		return fmt.Errorf("checksum dial: %w", err)
	}
	sum, size, err := conn.Checksum(benchPath)
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checksum: %w", err)
	}
	if size != p.w.fileSize || sum != p.sh.sha256() {
		return errors.New("server-side SHA-256 differs from the shadow copy")
	}
	return nil
}

// failedOps counts ops that returned an error, came up short or failed
// byte verification; a failed whole-file check counts as one more.
func (p *pass) failedOps() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].failed {
			n++
		}
	}
	if p.verifyErr != nil {
		n++
	}
	return n
}
