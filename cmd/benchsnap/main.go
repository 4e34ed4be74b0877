// Command benchsnap measures the wire hot path and writes a JSON snapshot
// suitable for committing next to the code it measures (BENCH_<n>.json).
//
// It answers three questions about one SRB connection under simulated
// network latency:
//
//  1. What does pipelining buy? The same batch of small writes is issued
//     strictly serialized (await each response before the next request, the
//     pre-pipelining client behavior) and then with many tagged requests in
//     flight. Latency-bound workloads should approach depth× improvement.
//  2. What does a coalesced striped write cost? One WriteAt spanning many
//     stripes of a striped SRBFS file, which travels as one vectored frame
//     run per stream.
//  3. What does buffer pooling buy? Heap allocations per op on the
//     small-op hot path, measured with runtime.MemStats.
//  4. What does federating across servers buy? The same striped write is
//     pushed through the federated driver against one device-metered
//     server and against three, so per-server storage bandwidth — the
//     bottleneck the paper's testbeds hit — is what scales.
//  5. What do the noncontiguous fast paths buy? The same strided view read
//     is issued naively (one round trip per record), data-sieved (windowed
//     contiguous reads), as list I/O (one offset/length vector on the
//     wire), and as a two-phase collective across ranks whose views tile
//     the file.
//  6. What does fair-share admission buy? A well-behaved tenant's p99 op
//     latency is measured alone and with a rate-limited neighbor flooding
//     the same server; per-tenant token buckets should shed the flood
//     before it queues in front of the victim.
//
// Usage:
//
//	benchsnap [-out BENCH_10.json] [-ops 400] [-size 512] [-depth 16]
//	          [-latency 500us] [-quick]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/mpi"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

type result struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	WallNS      int64   `json:"wall_ns"`
	NSPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P99NS       int64   `json:"p99_ns,omitempty"`
	ShedOps     int64   `json:"shed_ops,omitempty"`
}

type snapshot struct {
	Bench   string   `json:"bench"`
	Tool    string   `json:"tool"`
	Go      string   `json:"go"`
	Config  config   `json:"config"`
	Results []result `json:"results"`
	Derived derived  `json:"derived"`
}

type config struct {
	Ops         int   `json:"ops"`
	OpBytes     int   `json:"op_bytes"`
	OneWayLatNS int64 `json:"one_way_latency_ns"`
	Depth       int   `json:"pipeline_depth"`
	CoalesceOps int   `json:"coalesce_ops"`
	StripeBytes int   `json:"stripe_bytes"`
	Streams     int   `json:"streams"`

	FedBytes       int     `json:"fed_bytes"`
	FedStripeBytes int     `json:"fed_stripe_bytes"`
	FedServers     int     `json:"fed_servers"`
	FedWriteMBps   float64 `json:"fed_write_mbps"`

	StridedRecords     int `json:"strided_records"`
	StridedRecBytes    int `json:"strided_rec_bytes"`
	StridedStrideBytes int `json:"strided_stride_bytes"`
	TwoPhaseRanks      int `json:"two_phase_ranks"`

	FairOps          int     `json:"fair_ops"`
	FairOpBytes      int     `json:"fair_op_bytes"`
	FlooderOpsPerSec float64 `json:"flooder_ops_per_sec"`
}

type derived struct {
	// PipelineSpeedup is serialized wall time over pipelined wall time for
	// the same op batch on one connection.
	PipelineSpeedup float64 `json:"pipeline_speedup"`
	// FederationSpeedup is the 1-server federated striped write wall time
	// over the FedServers-server one: how much striping across servers
	// buys when per-server storage bandwidth is the bottleneck.
	FederationSpeedup float64 `json:"federation_speedup"`
	// SieveSpeedup is the naive strided read wall time over the data-sieved
	// one: what trading read amplification for round trips buys at WAN
	// latency.
	SieveSpeedup float64 `json:"sieve_speedup"`
	// ListIOSpeedup is the naive strided read wall time over the list-I/O
	// one (offset/length vector on the wire, no amplification).
	ListIOSpeedup float64 `json:"listio_speedup"`
	// TwoPhaseSpeedup is the naive strided read wall time over the
	// two-phase collective read whose ranks' views tile the file. The
	// collective moves TwoPhaseRanks× the data of the naive scenario, so
	// this understates the per-byte win.
	TwoPhaseSpeedup float64 `json:"two_phase_speedup"`
	// FairShareSlowdown is a well-behaved tenant's p99 op latency with a
	// rate-limited neighbor flooding the same server, over its solo p99.
	// Fair-share admission should keep this near 1: the flood is shed at
	// the bucket, not queued in front of the victim.
	FairShareSlowdown float64 `json:"fair_share_slowdown"`
}

func main() {
	out := flag.String("out", "BENCH_10.json", "snapshot output path (- for stdout)")
	ops := flag.Int("ops", 400, "small ops per scenario")
	size := flag.Int("size", 512, "bytes per small op")
	depth := flag.Int("depth", 16, "concurrent in-flight ops in the pipelined scenario")
	latency := flag.Duration("latency", 500*time.Microsecond, "one-way simulated latency")
	quick := flag.Bool("quick", false, "smoke sizes: a few ops, enough to exercise every path")
	flag.Parse()

	fedBytes := 16 << 20
	stridedRecords := 256
	if *quick {
		*ops = 40
		fedBytes = 512 << 10
		stridedRecords = 48
	}
	coalesceOps := *ops
	stripe := 4 << 10
	streams := 2
	fedStripe := 64 << 10
	fedServers := 3
	fedMBps := 128.0
	stridedRec := 512
	stridedStride := 4 << 10 // density 1/8: sparse enough for list I/O
	fairOps := *ops
	floodRate := 50.0

	cfg := config{
		Ops: *ops, OpBytes: *size, OneWayLatNS: int64(*latency), Depth: *depth,
		CoalesceOps: coalesceOps, StripeBytes: stripe, Streams: streams,
		FedBytes: fedBytes, FedStripeBytes: fedStripe, FedServers: fedServers,
		FedWriteMBps:   fedMBps,
		StridedRecords: stridedRecords, StridedRecBytes: stridedRec,
		StridedStrideBytes: stridedStride, TwoPhaseRanks: stridedStride / stridedRec,
		FairOps:          fairOps,
		FairOpBytes:      *size,
		FlooderOpsPerSec: floodRate,
	}

	serialized, err := runSmallWrites(*latency, *ops, *size, 1)
	check(err)
	serialized.Name = "small-writes/serialized"
	pipelined, err := runSmallWrites(*latency, *ops, *size, *depth)
	check(err)
	pipelined.Name = "small-writes/pipelined"

	coalesced, err := runStripedWrite(*latency, coalesceOps, stripe, streams)
	check(err)
	coalesced.Name = "striped-write/coalesce-on"

	fedOne, err := runFederatedWrite(*latency, fedBytes, fedStripe, 1, fedMBps)
	check(err)
	fedOne.Name = "federated-write/1-server"
	fedMany, err := runFederatedWrite(*latency, fedBytes, fedStripe, fedServers, fedMBps)
	check(err)
	fedMany.Name = fmt.Sprintf("federated-write/%d-servers", fedServers)

	naiveStrided, err := runStridedRead(*latency, stridedRecords, stridedRec, stridedStride,
		adio.Hints{"sieve": "off", "listio": "off"})
	check(err)
	naiveStrided.Name = "strided-read/naive"
	sievedStrided, err := runStridedRead(*latency, stridedRecords, stridedRec, stridedStride,
		adio.Hints{"listio": "off"})
	check(err)
	sievedStrided.Name = "strided-read/sieved"
	listioStrided, err := runStridedRead(*latency, stridedRecords, stridedRec, stridedStride,
		adio.Hints{"sieve": "off"})
	check(err)
	listioStrided.Name = "strided-read/listio"
	twoPhase, err := runTwoPhaseRead(*latency, stridedRecords, stridedRec, stridedStride)
	check(err)
	twoPhase.Name = "strided-read/two-phase"

	fairSolo, err := runFairShare(*latency, fairOps, *size, floodRate, false)
	check(err)
	fairSolo.Name = "fair-share/solo"
	fairFlooded, err := runFairShare(*latency, fairOps, *size, floodRate, true)
	check(err)
	fairFlooded.Name = "fair-share/flooded"

	snap := snapshot{
		Bench:  "wire-pipelining",
		Tool:   "cmd/benchsnap",
		Go:     runtime.Version(),
		Config: cfg,
		Results: []result{serialized, pipelined, coalesced, fedOne, fedMany,
			naiveStrided, sievedStrided, listioStrided, twoPhase, fairSolo, fairFlooded},
		Derived: derived{
			PipelineSpeedup:   ratio(serialized.WallNS, pipelined.WallNS),
			FederationSpeedup: ratio(fedOne.WallNS, fedMany.WallNS),
			SieveSpeedup:      ratio(naiveStrided.WallNS, sievedStrided.WallNS),
			ListIOSpeedup:     ratio(naiveStrided.WallNS, listioStrided.WallNS),
			TwoPhaseSpeedup:   ratio(naiveStrided.WallNS, twoPhase.WallNS),
			FairShareSlowdown: ratio(fairFlooded.P99NS, fairSolo.P99NS),
		},
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	check(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err := os.Stdout.Write(enc)
		check(err)
	} else {
		check(os.WriteFile(*out, enc, 0o644))
		fmt.Printf("wrote %s: pipeline %.2fx, federation %.2fx, sieve %.2fx, listio %.2fx, two-phase %.2fx, fair-share p99 %.2fx\n",
			*out, snap.Derived.PipelineSpeedup, snap.Derived.FederationSpeedup, snap.Derived.SieveSpeedup,
			snap.Derived.ListIOSpeedup, snap.Derived.TwoPhaseSpeedup,
			snap.Derived.FairShareSlowdown)
	}

	// A snapshot whose headline numbers show no improvement means a hot
	// path regressed; fail loudly so CI smoke catches it.
	if snap.Derived.PipelineSpeedup < 1.0 {
		fmt.Fprintf(os.Stderr, "benchsnap: pipelining slower than serialized (%.2fx)\n",
			snap.Derived.PipelineSpeedup)
		os.Exit(1)
	}
	if snap.Derived.FederationSpeedup < 1.0 {
		fmt.Fprintf(os.Stderr, "benchsnap: %d servers slower than one (%.2fx)\n",
			fedServers, snap.Derived.FederationSpeedup)
		os.Exit(1)
	}
	if snap.Derived.SieveSpeedup < 1.0 {
		fmt.Fprintf(os.Stderr, "benchsnap: sieved strided read slower than naive (%.2fx)\n",
			snap.Derived.SieveSpeedup)
		os.Exit(1)
	}
	// The fair-share gate: the flood must actually have hit the limiter,
	// and shedding it must have protected the neighbor — a generous bound
	// because p99 on a loaded CI box is noisy, but an unprotected server
	// (flood queued in front of the victim) blows well past it.
	if fairFlooded.ShedOps == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: flooding tenant was never rate-limited")
		os.Exit(1)
	}
	if snap.Derived.FairShareSlowdown > 10.0 {
		fmt.Fprintf(os.Stderr, "benchsnap: neighbor flood slowed well-behaved p99 %.2fx\n",
			snap.Derived.FairShareSlowdown)
		os.Exit(1)
	}
}

// stridedFS builds an SRBFS registry over latency-shaped pipes and lays
// down `records` frames of `stride` physical bytes.
func stridedFS(latency time.Duration, records, stride int) (*adio.Registry, error) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	fs, err := core.NewSRBFS(core.SRBFSConfig{
		Dial: func() (net.Conn, error) {
			cEnd, sEnd := netsim.Pipe(latency, nil, nil)
			go srv.ServeConn(sEnd)
			return cEnd, nil
		},
		User:       "bench",
		Streams:    2,
		StripeSize: 64 << 10,
	})
	if err != nil {
		return nil, err
	}
	reg := &adio.Registry{}
	reg.Register(fs)

	prep, err := mpiio.OpenLocal(reg, "srb:/strided.dat", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		return nil, err
	}
	defer prep.Close()
	buf := make([]byte, records*stride)
	for i := range buf {
		buf[i] = byte(i)
	}
	if _, err := prep.WriteAt(buf, 0); err != nil {
		return nil, err
	}
	return reg, nil
}

// runStridedRead reads `records` view frames of recSize bytes spaced stride
// bytes apart through one mpiio handle; hints select naive, sieved, or
// list-I/O dispatch.
func runStridedRead(latency time.Duration, records, recSize, stride int, hints adio.Hints) (result, error) {
	reg, err := stridedFS(latency, records, stride)
	if err != nil {
		return result{}, err
	}
	f, err := mpiio.OpenLocal(reg, "srb:/strided.dat", adio.O_RDONLY, hints)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	if err := f.SetView(mpiio.View{BlockLen: int64(recSize), Stride: int64(stride)}); err != nil {
		return result{}, err
	}

	out := make([]byte, records*recSize)
	start := time.Now()
	n, err := f.ReadAt(out, 0)
	wall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	if n != len(out) {
		return result{}, fmt.Errorf("strided read got %d of %d bytes", n, len(out))
	}
	return result{
		Ops:     records,
		WallNS:  wall.Nanoseconds(),
		NSPerOp: wall.Nanoseconds() / int64(records),
	}, nil
}

// runTwoPhaseRead reads the same strided file collectively: stride/recSize
// ranks install interleaved views that together tile every byte, so the
// aggregators' coalesced reads are large and contiguous. Note the
// collective moves ranks× the bytes of the single-rank scenarios.
func runTwoPhaseRead(latency time.Duration, records, recSize, stride int) (result, error) {
	np := stride / recSize
	reg, err := stridedFS(latency, records, stride)
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	err = mpi.Run(np, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, reg, "srb:/strided.dat", adio.O_RDONLY, nil)
		if err != nil {
			return err
		}
		defer f.Close()
		v := mpiio.View{
			Disp:     int64(c.Rank() * recSize),
			BlockLen: int64(recSize),
			Stride:   int64(stride),
		}
		if err := f.SetView(v); err != nil {
			return err
		}
		out := make([]byte, records*recSize)
		n, err := f.ReadAtAll(c, out, 0)
		if err != nil {
			return err
		}
		if n != len(out) {
			return fmt.Errorf("rank %d read %d of %d bytes", c.Rank(), n, len(out))
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	return result{
		Ops:     records,
		WallNS:  wall.Nanoseconds(),
		NSPerOp: wall.Nanoseconds() / int64(records),
	}, nil
}

// runSmallWrites issues ops writes of size bytes each over ONE connection
// at the given pipeline depth (1 = strictly serialized) and measures wall
// clock plus heap allocations per op.
func runSmallWrites(latency time.Duration, ops, size, depth int) (result, error) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	cEnd, sEnd := netsim.Pipe(latency, nil, nil)
	go srv.ServeConn(sEnd)
	conn, err := srb.NewConn(cEnd, "bench")
	if err != nil {
		return result{}, err
	}
	defer conn.Close()
	f, err := conn.Open("/bench.dat", srb.O_RDWR|srb.O_CREATE, "")
	if err != nil {
		return result{}, err
	}
	defer f.Close()

	blk := make([]byte, size)
	for i := range blk {
		blk[i] = byte(i)
	}
	// Warm the pools and the file so steady-state allocation is measured.
	if _, err := f.WriteAt(blk, 0); err != nil {
		return result{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()

	var firstErr error
	if depth <= 1 {
		for i := 0; i < ops; i++ {
			if _, err := f.WriteAt(blk, int64(i*size)); err != nil {
				firstErr = err
				break
			}
		}
	} else {
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		sem := make(chan struct{}, depth)
		for i := 0; i < ops; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := f.WriteAt(blk, int64(i*size)); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		return result{}, firstErr
	}
	return result{
		Ops:         ops,
		WallNS:      wall.Nanoseconds(),
		NSPerOp:     wall.Nanoseconds() / int64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}, nil
}

// runStripedWrite writes ops stripes through a striped SRBFS handle in one
// WriteAt call.
func runStripedWrite(latency time.Duration, ops, stripe, streams int) (result, error) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	dial := func() (net.Conn, error) {
		cEnd, sEnd := netsim.Pipe(latency, nil, nil)
		go srv.ServeConn(sEnd)
		return cEnd, nil
	}
	fs, err := core.NewSRBFS(core.SRBFSConfig{
		Dial:       dial,
		User:       "bench",
		Streams:    streams,
		StripeSize: stripe,
	})
	if err != nil {
		return result{}, err
	}
	f, err := fs.Open("/striped.dat", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		return result{}, err
	}
	defer f.Close()

	buf := make([]byte, ops*stripe)
	for i := range buf {
		buf[i] = byte(i)
	}

	start := time.Now()
	n, err := f.WriteAt(buf, 0)
	wall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	if n != len(buf) {
		return result{}, fmt.Errorf("striped write wrote %d of %d bytes", n, len(buf))
	}
	return result{
		Ops:     ops,
		WallNS:  wall.Nanoseconds(),
		NSPerOp: wall.Nanoseconds() / int64(ops),
	}, nil
}

// runFederatedWrite pushes one large striped write through the federated
// driver against a fleet of `servers` in-process SRB servers, each behind
// its own device metered at rateMBps — so aggregate storage bandwidth,
// not the wire, bounds throughput, and adding servers adds bandwidth.
// Replication is off (width = fleet, one copy per slot): the comparison
// isolates server-count scaling.
func runFederatedWrite(latency time.Duration, totalBytes, stripe, servers int, rateMBps float64) (result, error) {
	placer := mcat.NewPlacer(1)
	eps := make([]core.Endpoint, servers)
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("s%d", i)
		srv := srb.NewMemServer(storage.DeviceSpec{
			Name:      name + "-device",
			ReadRate:  rateMBps * netsim.MBps,
			WriteRate: rateMBps * netsim.MBps,
		})
		placer.AddServer(name)
		eps[i] = core.Endpoint{Name: name, Dial: func() (net.Conn, error) {
			cEnd, sEnd := netsim.Pipe(latency, nil, nil)
			go srv.ServeConn(sEnd)
			return cEnd, nil
		}}
	}
	fs, err := core.NewFedFS(core.FedConfig{
		Endpoints:  eps,
		Placer:     placer,
		Width:      servers,
		User:       "bench",
		Streams:    2,
		StripeSize: stripe,
	})
	if err != nil {
		return result{}, err
	}
	f, err := fs.Open("/fed.dat", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		return result{}, err
	}
	defer f.Close()

	buf := make([]byte, totalBytes)
	for i := range buf {
		buf[i] = byte(i)
	}

	start := time.Now()
	n, err := f.WriteAt(buf, 0)
	wall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	if n != len(buf) {
		return result{}, fmt.Errorf("federated write wrote %d of %d bytes", n, len(buf))
	}
	ops := totalBytes / stripe
	return result{
		Ops:     ops,
		WallNS:  wall.Nanoseconds(),
		NSPerOp: wall.Nanoseconds() / int64(ops),
	}, nil
}

// runFairShare measures a well-behaved tenant's per-op latency on a
// multi-tenant server, alone and (with flood) while an abusive neighbor
// hammers the same server with unpaced single-attempt writes against a
// tight rate limit. The abuser's excess is shed at its token bucket, so
// the victim's p99 should barely move; the shed count comes back so the
// caller can verify the flood actually hit the limiter.
func runFairShare(latency time.Duration, ops, size int, floodRate float64, flood bool) (result, error) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	reg := tenant.NewRegistry()
	victimKey := []byte("bench-victim-key")
	floodKey := []byte("bench-flood-key")
	reg.Register("victim", victimKey, tenant.Limits{OpsPerSec: 1e6, Burst: 1})
	reg.Register("flood", floodKey, tenant.Limits{OpsPerSec: floodRate, Burst: 0.25})
	srv.SetTenants(reg)
	dial := func() (net.Conn, error) {
		cEnd, sEnd := netsim.Pipe(latency, nil, nil)
		go srv.ServeConn(sEnd)
		return cEnd, nil
	}

	stop := make(chan struct{})
	floodDone := make(chan error, 1)
	if flood {
		fconn, err := srb.DialRetryAuth(dial, "bench-flood",
			srb.Credentials{TenantID: "flood", Key: floodKey}, srb.RetryPolicy{})
		if err != nil {
			return result{}, err
		}
		defer fconn.Close()
		ff, err := fconn.Open("/flood.dat", srb.O_RDWR|srb.O_CREATE, "")
		if err != nil {
			return result{}, err
		}
		go func() {
			defer ff.Close()
			blk := make([]byte, 256)
			for {
				select {
				case <-stop:
					floodDone <- nil
					return
				default:
				}
				if _, err := ff.WriteAt(blk, 0); err != nil && !errors.Is(err, srb.ErrRateLimited) {
					floodDone <- err
					return
				}
			}
		}()
	} else {
		close(floodDone)
	}

	conn, err := srb.DialRetryAuth(dial, "bench-victim",
		srb.Credentials{TenantID: "victim", Key: victimKey}, srb.RetryPolicy{})
	if err != nil {
		return result{}, err
	}
	defer conn.Close()
	f, err := conn.Open("/victim.dat", srb.O_RDWR|srb.O_CREATE, "")
	if err != nil {
		return result{}, err
	}
	defer f.Close()

	blk := make([]byte, size)
	for i := range blk {
		blk[i] = byte(i)
	}
	if _, err := f.WriteAt(blk, 0); err != nil {
		return result{}, err
	}

	lats := make([]time.Duration, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		opStart := time.Now()
		if _, err := f.WriteAt(blk, int64(i*size)); err != nil {
			return result{}, fmt.Errorf("victim op %d beside the flood: %w", i, err)
		}
		lats[i] = time.Since(opStart)
	}
	wall := time.Since(start)

	close(stop)
	if err := <-floodDone; err != nil {
		return result{}, fmt.Errorf("flooder: %w", err)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st := reg.StatsAll()["flood"]
	return result{
		Ops:     ops,
		WallNS:  wall.Nanoseconds(),
		NSPerOp: wall.Nanoseconds() / int64(ops),
		P99NS:   lats[ops*99/100].Nanoseconds(),
		ShedOps: st.ShedOps,
	}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}
