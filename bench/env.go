package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"semplar/internal/adio"
	"semplar/internal/cluster"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/trace"
)

// Transport kinds, recorded in every result so nobody reads a simulated
// number as a real link.
const (
	transportTCP = "loopback-tcp" // the host's 127.0.0.1, real kernel sockets
	transportSim = "netsim"       // the in-process WAN simulator
)

// campus is the testbed of fed_bulk: a short fat campus link in front of
// shards whose storage devices are the bottleneck, so placement and shard
// balance — not the wire — set throughput. It is defined here, not in
// internal/cluster, so a change to the paper's testbeds cannot move it.
func campus() cluster.Spec {
	return cluster.Spec{
		Name: "campus",
		Profile: netsim.Profile{
			Name:     "campus",
			OneWay:   200 * time.Microsecond,
			Window:   256 << 10,
			LinkRate: 1e9,
		},
		Device: storage.DeviceSpec{Name: "campus-array", WriteRate: 150e6, ReadRate: 400e6},
	}
}

// wan is the testbed of ckpt_wan and strided_wan: the paper's TeraGrid
// NCSA path and orion storage, ten times faster in wall-clock terms with
// every bandwidth ratio preserved.
func wan() cluster.Spec { return cluster.TGNCSA().Scaled(10) }

// env is one running deployment: in-process servers, the way to reach
// them, and the probes in between. cluster.Testbed serves its connections
// and owns its stores internally, which hides seams S and T, so the same
// forty lines are assembled here.
type env struct {
	rec     *recorder     // nil when tracing is off
	tracer  *trace.Tracer // the program's own tracer, traced pass only
	shards  []*shard
	placer  *mcat.Placer
	serving sync.WaitGroup // Serve / ServeConn goroutines
}

// shard is one server of the fleet and the probed way to reach it.
type shard struct {
	name string // as the placer knows it
	srv  *srb.Server
	dial core.DialFunc
}

func (e *env) addShard(name string, st storage.Store) *shard {
	srv := srb.NewServer()
	srv.AddResource("mem", "memory", probeSto(st, e.rec))
	if e.tracer != nil {
		srv.SetTracer(e.tracer)
	}
	sh := &shard{name: name, srv: srv}
	e.shards = append(e.shards, sh)
	return sh
}

// newLoopbackEnv starts one server on 127.0.0.1:0 with an unmetered memory
// store, as `srbd` would, and dials it over real TCP.
func newLoopbackEnv(rec *recorder, tr *trace.Tracer) (*env, error) {
	e := &env{rec: rec, tracer: tr}
	sh := e.addShard("s0", storage.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		// Serve returns when Shutdown closes the listener.
		_ = sh.srv.Serve(probeListen(l, rec))
	}()
	addr := l.Addr().String()
	sh.dial = func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return probeClientConn(c, rec, c.LocalAddr().String()), nil
	}
	return e, nil
}

// newSimEnv brings up a one-node fleet of shards behind one simulated
// network, each shard with its own metered device, plus an MCAT placer with
// replica-set size 1 — what cluster.NewFederated does, with the seams open.
func newSimEnv(spec cluster.Spec, shards int, rec *recorder, tr *trace.Tracer) *env {
	e := &env{rec: rec, tracer: tr, placer: mcat.NewPlacer(1)}
	nw := netsim.NewNetwork(spec.Profile, 1)
	var seq int
	var seqMu sync.Mutex
	for i := 0; i < shards; i++ {
		sh := e.addShard("s"+strconv.Itoa(i), storage.WithDevice(storage.NewMemStore(), spec.Device))
		e.placer.AddServer(sh.name)
		index := i
		sh.dial = func() (net.Conn, error) {
			c, s := nw.DialShard(0, index)
			seqMu.Lock()
			seq++
			key := sh.name + "#" + strconv.Itoa(seq)
			seqMu.Unlock()
			e.serving.Add(1)
			go func() {
				defer e.serving.Done()
				sh.srv.ServeConn(probeServerConn(s, rec, key))
			}()
			return probeClientConn(c, rec, key), nil
		}
	}
	return e
}

// fileOptions are the per-workload client settings.
type fileOptions struct {
	streams    int
	stripeSize int // 0 = the driver default (1 MiB)
	fedWidth   int // > 0 opens through core.FedFS over that many shards
}

const benchPath = "/bench.dat"

// open builds the client stack and opens the benchmark file. For SRBFS it
// is semplar.NewClient + Client.OpenWith line for line — the facade keeps
// its adio.Registry private, so seam D cannot be reached through it — and
// for FedFS there is no facade at all.
func (e *env) open(o fileOptions) (*mpiio.File, error) {
	var drv adio.Driver
	if o.fedWidth > 0 {
		eps := make([]core.Endpoint, len(e.shards))
		for i, sh := range e.shards {
			eps[i] = core.Endpoint{Name: sh.name, Dial: sh.dial}
		}
		fed, err := core.NewFedFS(core.FedConfig{
			Endpoints:  eps,
			Placer:     e.placer,
			Width:      o.fedWidth,
			User:       "bench",
			Streams:    o.streams,
			StripeSize: o.stripeSize,
			Tracer:     e.tracer,
		})
		if err != nil {
			return nil, err
		}
		drv = fed
	} else {
		fs, err := core.NewSRBFS(core.SRBFSConfig{
			Dial:       e.shards[0].dial,
			User:       "bench",
			Streams:    o.streams,
			StripeSize: o.stripeSize,
			Tracer:     e.tracer,
		})
		if err != nil {
			return nil, err
		}
		drv = fs
	}
	reg := &adio.Registry{}
	reg.Register(probeDrv(drv, e.rec))
	f, err := mpiio.OpenLocal(reg, drv.Name()+":"+benchPath, adio.O_RDWR|adio.O_CREATE,
		adio.Hints{"io_threads": "1"})
	if err != nil {
		return nil, err
	}
	if e.tracer != nil {
		f.SetTracer(e.tracer)
	}
	return f, nil
}

// admin opens a control connection to shard 0 through the probed dialer.
func (e *env) admin() (*srb.Conn, error) {
	c, err := e.shards[0].dial()
	if err != nil {
		return nil, err
	}
	return srb.NewConn(c, "bench")
}

// close drains and stops every server and waits for their goroutines.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var first error
	for _, sh := range e.shards {
		if err := sh.srv.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("server shutdown: %w", err)
		}
	}
	e.serving.Wait()
	return first
}

// serverTotals sums the public counters of every shard.
func (e *env) serverTotals() srb.ServerStats {
	var t srb.ServerStats
	for _, sh := range e.shards {
		s := sh.srv.Stats()
		t.Requests += s.Requests
		t.ProtocolError += s.ProtocolError
		t.OpenHandles += s.OpenHandles
		t.Shed += s.Shed
		t.RateLimited += s.RateLimited
	}
	return t
}
