package main

import (
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations are behind a percentile or median.
	Samples int `json:"samples,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// kindOf indexes per-kind arrays: 0 for reads, 1 for writes.
func kindOf(write bool) int {
	if write {
		return 1
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the library would see, from the
// untraced pass. Latency percentiles are taken over the whole window; rates
// are computed per slice and reported as the median slice.
func (p *pass) endToEnd() metrics {
	m := metrics{}
	var lat [2][]int64
	for _, s := range p.samples {
		lat[kindOf(s.write)] = append(lat[kindOf(s.write)], s.end-s.start)
	}
	var opsRate []float64
	var mbps [2][]float64
	for _, sl := range p.slices {
		ops := float64(sl.end - sl.first)
		dur := float64(sl.stop-sl.start) / 1e9
		opsRate = append(opsRate, ratio(ops, dur))
		var bytes, busy [2]float64
		for _, s := range p.samples[sl.first:sl.end] {
			k := kindOf(s.write)
			bytes[k] += float64(s.bytes)
			busy[k] += float64(s.end-s.start) / 1e9
		}
		for k := range mbps {
			// Blocking workloads: bytes over the time spent inside calls of
			// this kind. The async loop overlaps requests with compute, so
			// there the only honest denominator is elapsed time.
			over := busy[k]
			if p.w.async {
				over = dur
			}
			if bytes[k] > 0 {
				mbps[k] = append(mbps[k], ratio(bytes[k]/1e6, over))
			}
		}
	}
	m["ops_per_s"] = metric{Value: medianFloat(opsRate), Unit: "1/s", Samples: len(opsRate)}
	for k, kind := range []string{"read", "write"} {
		if len(lat[k]) == 0 {
			continue
		}
		m[kind+"_mbps"] = metric{Value: medianFloat(mbps[k]), Unit: "MB/s", Samples: len(mbps[k])}
		sorted := sortedCopy(lat[k])
		p50, _ := percentile(sorted, 50)
		tail, _ := percentile(sorted, p.w.tailPct)
		m[kind+"_p50_us"] = metric{Value: us(p50), Unit: "us", Samples: len(sorted)}
		m[kind+"_tail_us"] = metric{Value: us(tail), Unit: "us", Samples: len(sorted)}
	}
	if p.w.async {
		m.set("overlap_efficiency", p.overlapEfficiency(), "ratio")
	}
	m.set("failed_ops_share", ratio(float64(p.failedOps()), float64(len(p.samples))), "ratio")
	return m
}

// cpuPerOp is the process's CPU time per op, less the compute kernel's: the
// median over the window's slices.
func (p *pass) cpuPerOp() metric {
	var cpu []float64
	for _, sl := range p.slices {
		cpu = append(cpu, ratio(us(sl.cpu), float64(sl.end-sl.first)))
	}
	return metric{Value: medianFloat(cpu), Unit: "us", Samples: len(cpu)}
}

// overlapEfficiency is the paper's Fig. 6/7 number: the share of the
// maximum expected saving the async loop achieved,
// (T_sync − T_async) / (T_sync − T_ideal), with T_sync = Σ(compute_i + T_io),
// T_ideal = Σ max(compute_i, T_io) and T_io the blocking cost of the same
// transfer calibrated during set-up.
func (p *pass) overlapEfficiency() float64 {
	var tSync, tIdeal int64
	for i, s := range p.samples {
		tio := p.tio[kindOf(s.write)]
		c := p.steps[i].compute
		tSync += c + tio
		if c > tio {
			tIdeal += c
		} else {
			tIdeal += tio
		}
	}
	tAsync := p.windowEnd - p.windowStart
	return ratio(float64(tSync-tAsync), float64(tSync-tIdeal))
}

// exchange is one request/response round on a connection, cut out of the
// interleaved Read/Write calls both ends made: the client wrote (possibly
// in several calls), the server read, the server wrote, the client read.
type exchange struct {
	op     int32
	cw0    int64 // first client write, start
	cwEnd  int64 // last client write, return
	srEnd  int64 // last server read that returned before the server's first write
	swEnd  int64 // last server write, return
	crEnd  int64 // last client read, return
	seenSW bool
	// work is the part of [srEnd, swEnd] the server spent outside its own
	// Write calls. Time inside a Write — the kernel's send path on TCP, the
	// pacing of a shaped link on netsim — is the transport's, exactly as it
	// is for the client's writes.
	work []iv
}

func (x *exchange) complete() bool { return x.seenSW && x.srEnd > 0 && x.crEnd > 0 }

// exchangesOf replays both lanes of a link in causal order: a write takes
// effect no earlier than its start and a read has its bytes at its return,
// so writes are ordered by start and reads by end — a write then always
// precedes the peer read that consumed it, even when the reader woke before
// the writer's call returned. A client write that follows a server write
// opens the next exchange.
func exchangesOf(l *link) []exchange {
	evs := append(append([]span(nil), l.client.spans...), l.server.spans...)
	at := func(e span) int64 {
		if e.kind == cWrite || e.kind == sWrite {
			return e.start
		}
		return e.end
	}
	sort.SliceStable(evs, func(i, j int) bool { return at(evs[i]) < at(evs[j]) })
	var out []exchange
	var cur *exchange
	for _, e := range evs {
		switch e.kind {
		case cWrite:
			if cur == nil || cur.seenSW {
				out = append(out, exchange{op: e.op, cw0: e.start})
				cur = &out[len(out)-1]
			}
			cur.cwEnd = e.end
		case sRead:
			if cur != nil && !cur.seenSW {
				cur.srEnd = e.end
			}
		case sWrite:
			if cur != nil && cur.srEnd > 0 {
				from := cur.srEnd
				if cur.seenSW {
					from = cur.swEnd
				}
				if e.start > from {
					cur.work = append(cur.work, iv{from, e.start})
				}
				cur.seenSW = true
				cur.swEnd = e.end
			}
		case cRead:
			if cur != nil && cur.seenSW {
				cur.crEnd = e.end
			}
		}
	}
	return out
}

// opIv is an interval attributed to an application op.
type opIv struct {
	op int32
	iv
}

// byOp groups intervals by op id (1..n): the intervals of op i are
// flat[idx[i-1]:idx[i]].
func byOp(list []opIv, n int) (idx []int, flat []iv) {
	idx = make([]int, n+1)
	for _, x := range list {
		if x.op >= 1 && int(x.op) <= n {
			idx[x.op]++
		}
	}
	for i := 1; i <= n; i++ {
		idx[i] += idx[i-1]
	}
	flat = make([]iv, idx[n])
	fillAt := append([]int(nil), idx[:n]...)
	for _, x := range list {
		if x.op >= 1 && int(x.op) <= n {
			flat[fillAt[x.op-1]] = x.iv
			fillAt[x.op-1]++
		}
	}
	return idx, flat
}

// opTimes is where one op's latency went, seam by seam. Each field is the
// time covered at that seam, clipped to the seam above, so the self times
// derived from them telescope back to the op's latency.
type opTimes struct {
	a      int64 // seam A: the op's latency interval
	queue  int64 // async only: submit return → first driver call
	d      int64 // inside driver calls
	w      int64 // on the wire: first client write → last client read, per exchange
	s      int64 // server at work: request fully read → response written, outside its Write calls
	t      int64 // inside storage calls
	dCalls int
}

func (o opTimes) mpiioSelf() int64  { return o.a - o.queue - o.d }
func (o opTimes) driverSelf() int64 { return o.d - o.w }
func (o opTimes) transport() int64  { return o.w - o.s }
func (o opTimes) serverSelf() int64 { return o.s - o.t }

// analysis is everything the traced pass's span logs say.
type analysis struct {
	ops     []opTimes
	flights []int64 // client write return → server read return, per exchange

	dCalls, dBusy                   int64
	dDurations                      []int64
	cWrites, cReads                 int64
	cBytesUp, cBytesDown            int64
	sWrites                         int64
	sBusy                           int64
	tCalls, tBusy                   int64
	tBytesRead, tBytesWritten       int64
	submit, queue, waitBlocked      []int64
	userBytesRead, userBytesWritten int64
}

// analyze folds the recorder's lanes and the seam-A samples into per-op
// times and per-seam counts.
func (p *pass) analyze() *analysis {
	n := len(p.samples)
	an := &analysis{ops: make([]opTimes, n)}
	r := p.rec

	var dIvs, wIvs, sIvs, tIvs []opIv
	for _, s := range r.driver.spans {
		dIvs = append(dIvs, opIv{s.op, iv{s.start, s.end}})
		an.dCalls++
		an.dBusy += s.end - s.start
		an.dDurations = append(an.dDurations, s.end-s.start)
	}
	for _, l := range r.order {
		for _, s := range l.client.spans {
			if s.kind == cWrite {
				an.cWrites++
				an.cBytesUp += int64(s.n)
			} else {
				an.cReads++
				an.cBytesDown += int64(s.n)
			}
		}
		for _, s := range l.server.spans {
			if s.kind == sWrite {
				an.sWrites++
			}
		}
		for _, x := range exchangesOf(l) {
			if !x.complete() {
				continue
			}
			wIvs = append(wIvs, opIv{x.op, iv{x.cw0, x.crEnd}})
			for _, piece := range x.work {
				sIvs = append(sIvs, opIv{x.op, piece})
			}
			an.sBusy += x.swEnd - x.srEnd
			an.flights = append(an.flights, max(x.srEnd-x.cwEnd, 0))
		}
	}
	for _, l := range r.stores {
		for _, s := range l.spans {
			tIvs = append(tIvs, opIv{s.op, iv{s.start, s.end}})
			an.tCalls++
			an.tBusy += s.end - s.start
			switch s.kind {
			case tRead:
				an.tBytesRead += int64(s.n)
			case tWrite:
				an.tBytesWritten += int64(s.n)
			}
		}
	}

	dIdx, dFlat := byOp(dIvs, n)
	wIdx, wFlat := byOp(wIvs, n)
	sIdx, sFlat := byOp(sIvs, n)
	tIdx, tFlat := byOp(tIvs, n)
	for i, smp := range p.samples {
		o := &an.ops[i]
		a := ivset{{smp.start, smp.end}}
		dRaw := dFlat[dIdx[i]:dIdx[i+1]]
		o.dCalls = len(dRaw)
		d := unionOf(dRaw)
		w := unionOf(wFlat[wIdx[i]:wIdx[i+1]])
		s := unionOf(sFlat[sIdx[i]:sIdx[i+1]])
		t := unionOf(tFlat[tIdx[i]:tIdx[i+1]])
		o.a = a.length()
		o.d = overlap(a, d)
		o.w = overlap(d, w)
		o.s = overlap(w, s)
		o.t = overlap(s, t)
		if smp.write {
			an.userBytesWritten += int64(smp.bytes)
		} else {
			an.userBytesRead += int64(smp.bytes)
		}
		if p.w.async {
			st := p.steps[i]
			if len(d) > 0 && d[0].start > st.submitEnd {
				o.queue = d[0].start - st.submitEnd
			}
			an.submit = append(an.submit, st.submitEnd-smp.start)
			an.queue = append(an.queue, o.queue)
			an.waitBlocked = append(an.waitBlocked, st.waitEnd-st.waitStart)
		}
	}
	return an
}

// medianOf is the median over ops of one derived time.
func (an *analysis) medianOf(keep func(int) bool, f func(opTimes) int64) int64 {
	var v []int64
	for i, o := range an.ops {
		if keep == nil || keep(i) {
			v = append(v, f(o))
		}
	}
	return medianInt(v)
}

func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// perLayer computes the per-layer metrics of one traced pass. ref is an
// untraced pass of the same workload and seed: the process-wide figures
// (allocations, GC) come from it, because the recorder's own logs would
// otherwise be counted as the program's, and its ops_per_s is the baseline
// of trace.overhead_pct.
func (p *pass) perLayer(an *analysis, ref *pass) metrics {
	m := metrics{}
	ops := float64(len(p.samples))
	window := float64(p.windowEnd - p.windowStart)
	fed := p.w.opts.fedWidth > 0
	file0, file1 := p.before.file, p.after.file
	requests := float64(p.after.server.Requests - p.before.server.Requests)

	// mpiio
	m.set("mpiio.driver_calls_per_op", ratio(float64(an.dCalls), ops), "count")
	m.set("mpiio.phys_read_bytes_per_user_byte",
		ratio(float64(file1.PhysBytesRead-file0.PhysBytesRead), float64(file1.BytesRead-file0.BytesRead)), "ratio")
	m.set("mpiio.phys_write_bytes_per_user_byte",
		ratio(float64(file1.PhysBytesWritten-file0.PhysBytesWritten), float64(file1.BytesWritten-file0.BytesWritten)), "ratio")

	// driver: srbfs or fedfs, whichever is registered
	drv := "srbfs"
	if fed {
		drv = "fedfs"
	}
	m.set(drv+".call_us", us(medianInt(an.dDurations)), "us")
	m.set(drv+".retried_ops", float64(p.faults.RetriedOps), "count")
	if fed {
		lo, hi := int64(-1), int64(0)
		for i := range p.after.shardWr {
			b := p.after.shardWr[i] - p.before.shardWr[i]
			if lo < 0 || b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		m.set("fedfs.shard_byte_imbalance", ratio(float64(hi), float64(lo)), "ratio")
	} else {
		m.set("srbfs.reconnects", float64(p.faults.Reconnects), "count")
	}

	// engine
	if p.w.async {
		m.set("engine.submit_us", us(medianInt(an.submit)), "us")
		m.set("engine.queue_wait_us", us(medianInt(an.queue)), "us")
		m.set("engine.wait_blocked_us_per_op", ratio(us(sum(an.waitBlocked)), ops), "us")
		m.set("engine.io_thread_busy_share", ratio(float64(an.dBusy), window), "ratio")
		m.set("engine.overlap_efficiency", p.overlapEfficiency(), "ratio")
	}

	// srb client, at seam C
	m.set("srb_client.conn_writes_per_op", ratio(float64(an.cWrites), ops), "count")
	m.set("srb_client.conn_reads_per_op", ratio(float64(an.cReads), ops), "count")
	m.set("srb_client.wire_bytes_up_per_user_byte", ratio(float64(an.cBytesUp), float64(an.userBytesWritten)), "ratio")
	m.set("srb_client.wire_bytes_down_per_user_byte", ratio(float64(an.cBytesDown), float64(an.userBytesRead)), "ratio")
	m.set("srb_client.ping_rtt_us", us(p.pingRTT), "us")

	// transport: the file's own connections, from set-up to the end of the
	// window — the control connections finish dials afterwards are not the
	// workload's, and would hide a reconnect.
	m.set("transport.conns_opened", float64(p.after.conns), "count")

	// srb server, at seam S plus Server.Stats
	m.set("srb_server.requests_per_op", ratio(requests, ops), "count")
	m.set("srb_server.busy_us_per_req", ratio(us(an.sBusy), requests), "us")
	m.set("srb_server.conn_writes_per_req", ratio(float64(an.sWrites), requests), "count")
	tot := p.env.serverTotals()
	m.set("srb_server.shed", float64(tot.Shed), "count")
	m.set("srb_server.rate_limited", float64(tot.RateLimited), "count")
	m.set("srb_server.protocol_errors", float64(tot.ProtocolError), "count")
	m.set("srb_server.open_handles_end", float64(p.handlesEnd), "count")

	// storage, at seam T
	m.set("storage.calls_per_op", ratio(float64(an.tCalls), ops), "count")
	m.set("storage.busy_us_per_op", ratio(us(an.tBusy), ops), "us")
	m.set("storage.read_bytes_per_user_byte", ratio(float64(an.tBytesRead), float64(an.userBytesRead)), "ratio")
	m.set("storage.write_bytes_per_user_byte", ratio(float64(an.tBytesWritten), float64(an.userBytesWritten)), "ratio")

	// Self times only mean something where ops do not overlap.
	if p.w.depth1 {
		var srvSelf int64
		for _, o := range an.ops {
			srvSelf += o.serverSelf()
		}
		m.set("mpiio.self_us_per_op", us(an.medianOf(nil, opTimes.mpiioSelf)), "us")
		if !fed {
			m.set("srbfs.self_us_per_call", us(an.medianOf(nil, func(o opTimes) int64 {
				if o.dCalls == 0 {
					return 0
				}
				return o.driverSelf() / int64(o.dCalls)
			})), "us")
		}
		m.set("srb_server.self_us_per_req", ratio(us(srvSelf), requests), "us")
		m.set("transport.flight_us", us(medianInt(an.flights)), "us")
		m.set("transport.us_per_op", us(an.medianOf(nil, opTimes.transport)), "us")
	}

	// proc, from the untraced reference pass
	refOps := float64(len(ref.samples))
	mem0, mem1 := &ref.before.mem, &ref.after.mem
	m["proc.cpu_us_per_op"] = ref.cpuPerOp()
	m.set("proc.allocs_per_op", ratio(float64(mem1.Mallocs-mem0.Mallocs), refOps), "count")
	m.set("proc.alloc_bytes_per_op", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), refOps), "B")
	m.set("proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC), "count")
	m.set("proc.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	// HeapSys only grows, so its last reading is the run's high-water mark.
	m.set("proc.heap_peak_mb", float64(mem1.HeapSys)/1e6, "MB")
	m.set("proc.goroutines_leaked", float64(p.leaked+ref.leaked), "count")

	// trace
	refRate := ratio(refOps, float64(ref.windowEnd-ref.windowStart))
	rate := ratio(ops, window)
	m.set("trace.overhead_pct", 100*(1-ratio(rate, refRate)), "%")
	return m
}

// reconstruction rebuilds the depth-1 latency of one op kind from the
// per-layer medians, to be held against the untraced p50: if the parts do
// not add up to the whole, the probes are wrong.
type reconstruction struct {
	Kind                                         string
	MpiioSelf, DriverSelf, Transport, ServerSelf float64
	Storage, Queue, Sum, TracedP50               float64
	Ops                                          int
}

func (p *pass) reconstruct(an *analysis) []reconstruction {
	var out []reconstruction
	for _, write := range []bool{false, true} {
		keep := func(i int) bool { return p.samples[i].write == write }
		r := reconstruction{Kind: "read"}
		if write {
			r.Kind = "write"
		}
		for i := range p.samples {
			if keep(i) {
				r.Ops++
			}
		}
		if r.Ops == 0 {
			continue
		}
		r.MpiioSelf = us(an.medianOf(keep, opTimes.mpiioSelf))
		r.DriverSelf = us(an.medianOf(keep, opTimes.driverSelf))
		r.Transport = us(an.medianOf(keep, opTimes.transport))
		r.ServerSelf = us(an.medianOf(keep, opTimes.serverSelf))
		r.Storage = us(an.medianOf(keep, func(o opTimes) int64 { return o.t }))
		r.Queue = us(an.medianOf(keep, func(o opTimes) int64 { return o.queue }))
		r.Sum = r.MpiioSelf + r.DriverSelf + r.Transport + r.ServerSelf + r.Storage + r.Queue
		r.TracedP50 = us(an.medianOf(keep, func(o opTimes) int64 { return o.a }))
		out = append(out, r)
	}
	return out
}
