package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"semplar/internal/adio"
	"semplar/internal/mcat"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// This file is the federation routing layer between the ADIO surface and
// the per-server SRB client pools: where SRBFS stripes one file across the
// TCP streams of a single server, FedFS stripes it across N servers, with
// the MCAT's Placer deciding which servers hold which stripe slots and in
// what replica order.
//
// Layout. A file with placement width W and stripe size S is cut into
// global blocks of S bytes; block b belongs to slot b%W, and the blocks of
// one slot pack densely into a per-slot file on each of the slot's
// servers (SlotPath). Global offset g therefore maps to local offset
// (b/W)*S + g%S of slot b%W, b = g/S — RAID-0 addressing. Dense slot
// files make every replica of a slot bit-identical, so the server-side
// Checksum RPC is directly comparable across a replica set.
//
// Consistency. Writes go to every server of a slot's replica set before
// the write returns (sync replication), or to the primary only with
// replicas trailing in the background (async replication; Sync/Close
// drain the backlog and surface the first replication failure). Reads go
// to the primary and fail over through the replicas in placement order on
// any error except io.EOF — EOF from a healthy server is a result, not a
// failure. Each per-server pool is a full SRBFS handle, so cross-server
// failover reuses the single-server retry classification, reconnect
// budgets and stripe pipelining unchanged: a dead shard is just another
// transient until its budget runs out.

// Endpoint names one SRB server of the federation and how to reach it.
// Name must match the name the Placer knows the server by.
type Endpoint struct {
	Name string
	Dial DialFunc
}

// FedConfig configures the federated ADIO driver.
type FedConfig struct {
	// Endpoints is the server fleet. Every server the Placer may name in
	// a placement must appear here.
	Endpoints []Endpoint
	// Placer is the MCAT placement service directing stripes to servers.
	Placer *mcat.Placer
	// Width is the desired stripe-slot count per file (clamped by the
	// Placer to the fleet size). Default: len(Endpoints).
	Width int
	// Async switches replica writes from synchronous (every replica
	// acknowledged before WriteAt returns) to asynchronous (primary only;
	// replicas catch up in the background, drained by Sync/Close).
	Async bool

	// The remaining fields configure each per-server SRBFS pool; see
	// SRBFSConfig for their semantics.
	User            string
	Tenant          srb.Credentials
	Resource        string
	Streams         int
	StripeSize      int
	Retry           srb.RetryPolicy
	ReconnectBudget int
	Tracer          *trace.Tracer
}

// FedFS is the federated ADIO driver: one SRBFS pool per server endpoint,
// with stripe-slot routing between them.
type FedFS struct {
	cfg    FedConfig
	stripe int64
	subs   map[string]*SRBFS // per-endpoint single-server drivers; immutable
}

var _ adio.Driver = (*FedFS)(nil)

// NewFedFS validates the config and builds the per-endpoint pools.
func NewFedFS(cfg FedConfig) (*FedFS, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("core: FedFS needs at least one endpoint")
	}
	if cfg.Placer == nil {
		return nil, fmt.Errorf("core: FedFS needs a Placer")
	}
	if cfg.Width <= 0 {
		cfg.Width = len(cfg.Endpoints)
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	subs := make(map[string]*SRBFS, len(cfg.Endpoints))
	for _, ep := range cfg.Endpoints {
		if ep.Name == "" || ep.Dial == nil {
			return nil, fmt.Errorf("core: federation endpoint needs a name and a dialer")
		}
		if _, dup := subs[ep.Name]; dup {
			return nil, fmt.Errorf("core: duplicate federation endpoint %q", ep.Name)
		}
		sub, err := NewSRBFS(SRBFSConfig{
			Dial:            ep.Dial,
			User:            cfg.User,
			Tenant:          cfg.Tenant,
			Resource:        cfg.Resource,
			Streams:         cfg.Streams,
			StripeSize:      cfg.StripeSize,
			Retry:           cfg.Retry,
			ReconnectBudget: cfg.ReconnectBudget,
			Tracer:          cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		subs[ep.Name] = sub
	}
	return &FedFS{cfg: cfg, stripe: int64(cfg.StripeSize), subs: subs}, nil
}

// Name implements adio.Driver.
func (d *FedFS) Name() string { return "srbfed" }

// SlotPath names the per-slot file holding one stripe slot's dense bytes
// on each server of its replica set.
func SlotPath(path string, slot int) string {
	return fmt.Sprintf("%s.s%d", path, slot)
}

// Delete implements adio.Driver: the slot files are unlinked on every
// server of every slot's replica set.
func (d *FedFS) Delete(path string) error {
	slots, ok := d.cfg.Placer.Lookup(path)
	if !ok {
		return fmt.Errorf("%w: no placement for %s", srb.ErrNotFound, path)
	}
	var first error
	for slot, servers := range slots {
		for _, server := range servers {
			err := d.subs[server].Delete(SlotPath(path, slot))
			if err != nil && !errors.Is(err, srb.ErrNotFound) && first == nil {
				first = err
			}
		}
	}
	return first
}

// Open implements adio.Driver. A file exists when it has a placement: an
// O_CREATE open decides (or recalls) one through the Placer, any other open
// fails not-found without one. A slot file not yet written is an empty
// slot, so slot opens carry O_CREATE. Per-slot server handles open lazily
// on first use, except that truncating or exclusive opens touch every slot
// file up front — O_TRUNC must empty all slots now, not whenever a slot is
// next written. Supported hints: "streams" and "stripe_size", as for SRBFS.
func (d *FedFS) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	stripe := d.stripe
	if v := hints.Get("stripe_size", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad stripe_size hint %q", v)
		}
		stripe = int64(n)
	}
	slots, ok := d.cfg.Placer.Lookup(path)
	switch {
	case !ok && flags&adio.O_CREATE == 0:
		return nil, fmt.Errorf("%w: no placement for %s", srb.ErrNotFound, path)
	case !ok:
		var err error
		if slots, err = d.cfg.Placer.Place(path, d.cfg.Width); err != nil {
			return nil, fmt.Errorf("core: place %s: %w", path, err)
		}
	}
	if flags&adio.O_CREATE == 0 {
		flags &^= adio.O_EXCL // as on the server, O_EXCL means nothing without O_CREATE
	}
	flags |= adio.O_CREATE
	for _, servers := range slots {
		for _, server := range servers {
			if _, ok := d.subs[server]; !ok {
				return nil, fmt.Errorf("core: placement names unknown endpoint %q for %s", server, path)
			}
		}
	}
	f := &fedFile{
		fs:        d,
		path:      path,
		layout:    layout{stripe: stripe, width: len(slots), dense: true},
		slots:     slots,
		hints:     hints,
		lazyFlags: flags &^ (adio.O_TRUNC | adio.O_EXCL),
		async:     d.cfg.Async,
		handles:   make(map[handleKey]*srbFile),
		repSem:    make(chan struct{}, fedReplicaDepth),
	}
	if flags&(adio.O_TRUNC|adio.O_EXCL) != 0 {
		for slot, servers := range slots {
			for _, server := range servers {
				h, err := d.subs[server].open(SlotPath(path, slot), flags, hints)
				if err != nil {
					//lint:allow errdrop -- unwinding a partially-opened slot set; the open error is returned
					f.Close()
					return nil, err
				}
				f.handles[handleKey{server, slot}] = h
			}
		}
	}
	return f, nil
}

// handleKey addresses one per-slot file handle on one server.
type handleKey struct {
	server string
	slot   int
}

// fedPipelineDepth bounds concurrent slot-stripe operations in flight per
// federated call — enough to keep every endpoint's pipeline fed without
// unbounded fan-out.
const fedPipelineDepth = 16

// fedReplicaDepth bounds outstanding background replica writes per handle
// in async mode.
const fedReplicaDepth = 16

// fedFile is one open federated handle: a lazily-populated map of
// per-(server, slot) SRBFS handles, the dense RAID-0 layout translating
// between the global file and the slot files, and the replication
// machinery.
type fedFile struct {
	fs        *FedFS
	path      string
	layout    layout // dense; width == len(slots)
	slots     []mcat.ReplicaSet
	hints     adio.Hints
	lazyFlags int
	async     bool

	mu      sync.Mutex
	closed  bool                   // guarded by mu; no replica is queued once set
	handles map[handleKey]*srbFile // guarded by mu; lazily opened, nil once torn down

	// Background replication state (async mode): repWG tracks trailing
	// replica writes, repSem bounds them, repErr holds the first failure
	// until Sync or Close surfaces it.
	repWG  sync.WaitGroup
	repSem chan struct{}
	repMu  sync.Mutex
	repErr error // guarded by repMu
}

var _ adio.File = (*fedFile)(nil)
var _ FaultReporter = (*fedFile)(nil)

// getHandle returns the (server, slot) handle, opening it on first use.
// The open happens outside the handle lock; a lost race closes the extra.
// Handles stay available while Close drains the replica backlog.
func (f *fedFile) getHandle(server string, slot int) (*srbFile, error) {
	key := handleKey{server, slot}
	f.mu.Lock()
	if f.handles == nil {
		f.mu.Unlock()
		return nil, errHandleClosed
	}
	if h, ok := f.handles[key]; ok {
		f.mu.Unlock()
		return h, nil
	}
	f.mu.Unlock()
	h, err := f.fs.subs[server].open(SlotPath(f.path, slot), f.lazyFlags, f.hints)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.handles == nil {
		f.mu.Unlock()
		//lint:allow errdrop -- the handle raced Close; nothing to report
		h.Close()
		return nil, errHandleClosed
	}
	if prev, ok := f.handles[key]; ok {
		f.mu.Unlock()
		//lint:allow errdrop -- a concurrent op opened the same slot handle first
		h.Close()
		return prev, nil
	}
	f.handles[key] = h
	f.mu.Unlock()
	return h, nil
}

// fedWrite is one write call on a slot handle: the bytes bound for one slot
// that travel together — a single piece from WriteAt, the slot's whole
// vector from WriteAtVec.
type fedWrite struct {
	slot int
	gOff int64      // global offset of the first byte, for error reports
	vecs []adio.Vec // slot-local
}

// on issues the write on one server's slot handle. A lone extent takes the
// handle's scalar entry point, which skips the vector bookkeeping and puts
// one one-segment opWritev per stripe on the wire, pipelined.
func (w fedWrite) on(h *srbFile) (int, error) {
	if len(w.vecs) == 1 {
		return h.WriteAt(w.vecs[0].Buf, w.vecs[0].Off)
	}
	return h.WriteAtVec(w.vecs)
}

// writeAll sends each write to its slot's replica set — every server
// before returning in sync mode, the primary only in async mode with the
// replicas queued behind repWG — keeping at most fedPipelineDepth
// (write, server) pairs in flight. Each result is the count every required
// replica confirmed, with the first error among them.
func (f *fedFile) writeAll(writes []fedWrite) []opResult {
	acks := make([][]opResult, len(writes))
	var wg sync.WaitGroup
	sem := make(chan struct{}, fedPipelineDepth)
	for i := range writes {
		w := &writes[i]
		servers := f.slots[w.slot]
		must := servers
		if f.async {
			must = servers[:1]
		}
		// Room for a refused replica's ack too: appending one below must
		// not move the acks the goroutines are writing through.
		acks[i] = make([]opResult, len(must), len(servers))
		for r, server := range must {
			sem <- struct{}{}
			wg.Add(1)
			go func(ack *opResult) {
				defer wg.Done()
				defer func() { <-sem }()
				h, err := f.getHandle(server, w.slot)
				if err == nil {
					ack.n, err = w.on(h)
				}
				ack.err = err
			}(&acks[i][r])
		}
		for _, server := range servers[len(must):] {
			if err := f.queueReplica(server, *w); err != nil {
				acks[i] = append(acks[i], opResult{err: err})
			}
		}
	}
	wg.Wait()

	results := make([]opResult, len(writes))
	for i, replicas := range acks {
		results[i] = replicas[0]
		for _, r := range replicas[1:] {
			results[i].n = min(results[i].n, r.n)
			if results[i].err == nil {
				results[i].err = r.err
			}
		}
	}
	return results
}

// queueReplica schedules one trailing replica write (async mode). The
// bytes are copied — the caller owns its buffers again as soon as the
// write call returns. Trailing writes of one call may reorder against
// another in-flight call; overlapping writers that need ordering use sync
// replication. The first failure is held for Sync/Close. Once Close has
// begun it refuses with errHandleClosed: Close waits for the backlog, so
// nothing may join it after that.
func (f *fedFile) queueReplica(server string, w fedWrite) error {
	vecs := make([]adio.Vec, len(w.vecs))
	for i, v := range w.vecs {
		vecs[i] = adio.Vec{Off: v.Off, Buf: append([]byte(nil), v.Buf...)}
	}
	w.vecs = vecs
	f.repSem <- struct{}{}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.repSem
		return errHandleClosed
	}
	f.repWG.Add(1)
	f.mu.Unlock()
	go func() {
		defer f.repWG.Done()
		defer func() { <-f.repSem }()
		h, err := f.getHandle(server, w.slot)
		if err == nil {
			_, err = w.on(h)
		}
		if err != nil {
			f.repMu.Lock()
			if f.repErr == nil {
				f.repErr = fmt.Errorf("core: async replica %s slot %d at %d: %w",
					server, w.slot, w.gOff, err)
			}
			f.repMu.Unlock()
		}
	}()
	return nil
}

// WriteAt implements adio.File, one write per stripe. On error the returned
// count is the contiguous prefix confirmed on every required replica, the
// same contract as the single-server path.
func (f *fedFile) WriteAt(p []byte, off int64) (int, error) {
	pieces := plan([]adio.Vec{{Off: off, Buf: p}}, f.layout)
	vecs := make([]adio.Vec, len(pieces))
	writes := make([]fedWrite, len(pieces))
	for i, pc := range pieces {
		vecs[i] = adio.Vec{Off: pc.lOff, Buf: pc.buf}
		writes[i] = fedWrite{slot: pc.target, gOff: pc.gOff, vecs: vecs[i : i+1]}
	}
	return prefix(pieces, f.writeAll(writes), true)
}

// WriteAtVec implements adio.VectorIO: each slot's share of the scatter
// list travels as one vectored write per replica (list I/O under
// federation), replicated exactly as WriteAt replicates a stripe.
func (f *fedFile) WriteAtVec(vecs []adio.Vec) (int, error) {
	pieces := plan(vecs, f.layout)
	var groups [][]int
	var writes []fedWrite
	for slot, idxs := range byTarget(pieces, f.layout.width) {
		if len(idxs) > 0 {
			groups = append(groups, idxs)
			writes = append(writes, fedWrite{slot: slot, gOff: pieces[idxs[0]].gOff, vecs: localVecs(pieces, idxs)})
		}
	}
	results := make([]opResult, len(pieces))
	for i, ack := range f.writeAll(writes) {
		spread(pieces, groups[i], ack.n, ack.err, results)
	}
	return prefix(pieces, results, true)
}

// failover runs a read-side op against the slot's servers in placement
// order until one answers. io.EOF is an answer: a healthy server saying
// "the file ends here" is a result; shopping the same question to a
// replica could only return stale bytes (async mode) or the same answer
// (sync mode).
func (f *fedFile) failover(slot int, op func(*srbFile) (int, error)) (int, error) {
	var lastErr error = errStreamDown
	for _, server := range f.slots[slot] {
		h, err := f.getHandle(server, slot)
		if err == nil {
			var n int
			if n, err = op(h); err == nil || errors.Is(err, io.EOF) {
				return n, err
			}
		}
		lastErr = err
	}
	return 0, lastErr
}

// ReadAt implements adio.File. Each stripe reads from its slot's primary
// and fails over through the replicas; a failed-over stripe counts fully
// toward the contiguous prefix. Short reads report the contiguous prefix
// actually available, with io.EOF when it ends before len(p).
func (f *fedFile) ReadAt(p []byte, off int64) (int, error) {
	pieces := plan([]adio.Vec{{Off: off, Buf: p}}, f.layout)
	results := make([]opResult, len(pieces))
	bounded(fedPipelineDepth, len(pieces), func(i int) {
		pc := pieces[i]
		results[i].n, results[i].err = f.failover(pc.target, func(h *srbFile) (int, error) {
			return h.ReadAt(pc.buf, pc.lOff)
		})
	})
	return prefix(pieces, results, false)
}

// ReadAtVec implements adio.VectorIO: each slot's share of the scatter
// list is one vectored read, failing over as a unit. A slot's read stops at
// its first short extent, so the contiguous prefix in segment order ends
// there too.
func (f *fedFile) ReadAtVec(vecs []adio.Vec) (int, error) {
	pieces := plan(vecs, f.layout)
	results := make([]opResult, len(pieces))
	perTarget(pieces, f.layout.width, func(slot int, idxs []int) {
		segs := localVecs(pieces, idxs)
		n, err := f.failover(slot, func(h *srbFile) (int, error) { return h.ReadAtVec(segs) })
		if errors.Is(err, io.EOF) {
			err = nil
		}
		spread(pieces, idxs, n, err, results)
	})
	return prefix(pieces, results, false)
}

// Size implements adio.File: the global size is the maximum inverse-mapped
// end across the slot files (each sized via primary-then-replica failover).
func (f *fedFile) Size() (int64, error) {
	var size int64
	for slot := range f.slots {
		var local int64
		_, err := f.failover(slot, func(h *srbFile) (_ int, err error) {
			local, err = h.Size()
			return 0, err
		})
		if err != nil {
			return 0, err
		}
		size = max(size, f.layout.slotEnd(local, slot))
	}
	return size, nil
}

// Truncate implements adio.File, cutting every slot file on every replica
// to its share of the new size. The async backlog is drained first so a
// trailing replica write cannot resurrect truncated bytes.
func (f *fedFile) Truncate(size int64) error {
	f.repWG.Wait()
	for slot, servers := range f.slots {
		local := f.layout.slotSpan(size, slot)
		for _, server := range servers {
			h, err := f.getHandle(server, slot)
			if err != nil {
				return err
			}
			if err := h.Truncate(local); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync implements adio.File: the async replication backlog is drained,
// the first replication failure (if any) surfaces here, and every open
// slot handle syncs. After a successful Sync the replica sets are
// convergent — the async divergence window is closed.
func (f *fedFile) Sync() error {
	f.repWG.Wait()
	f.repMu.Lock()
	err := f.repErr
	f.repMu.Unlock()
	if err != nil {
		return err
	}
	for _, h := range f.openHandles() {
		if err := h.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// openHandles snapshots the live slot handles.
func (f *fedFile) openHandles() []*srbFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*srbFile, 0, len(f.handles))
	for _, h := range f.handles {
		out = append(out, h)
	}
	return out
}

// FaultStats implements FaultReporter, aggregating across every slot
// handle's single-server pool.
func (f *fedFile) FaultStats() FaultStats {
	var st FaultStats
	for _, h := range f.openHandles() {
		sub := h.FaultStats()
		st.Reconnects += sub.Reconnects
		st.RetriedOps += sub.RetriedOps
		st.BudgetLeft += sub.BudgetLeft
	}
	return st
}

// Close implements adio.File: no replica is queued from here on, the async
// backlog drains (its writes still reach their slot handles), every slot
// handle closes, and the first error — a held replication failure first —
// is returned.
func (f *fedFile) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.repWG.Wait()
	f.mu.Lock()
	handles := f.handles
	f.handles = nil
	f.mu.Unlock()
	f.repMu.Lock()
	first := f.repErr
	f.repMu.Unlock()
	for _, h := range handles {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
