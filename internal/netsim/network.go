package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/trace"
)

// Network instantiates a Profile for a cluster of nodes talking to one SRB
// server: the shared WAN path, the optional NAT host, the server NIC pool
// and one I/O bus per node. Every connection dialed through the network
// draws on the shared limiters, so concurrent streams contend exactly where
// the real testbeds did.
type Network struct {
	prof     Profile
	nodes    int
	pathUp   *Limiter
	pathDown *Limiter
	natUp    *Limiter
	natDown  *Limiter
	srvUp    *Limiter // toward server (ingress NIC)
	srvDown  *Limiter // from server (egress NIC)
	buses    []*Bus
	icByNode []*Limiter // MPI interconnect injection per node

	mu             sync.Mutex
	conns          int                // guarded by mu
	live           map[*Conn]connInfo // guarded by mu; client endpoint -> origin
	partUntil      map[int]time.Time  // guarded by mu; node -> partition end
	shardPartUntil map[int]time.Time  // guarded by mu; shard -> partition end
	jitterSeq      int64              // guarded by mu

	// spike is the extra one-way latency (nanoseconds) currently injected
	// on every connection; see SetLatencySpike.
	spike atomic.Int64

	tracer *trace.Tracer // guarded by mu; nil = tracing off
}

// connInfo tags one live connection with where it came from and which
// server shard it reaches, so faults can be scoped to either end: node
// faults (kills, partitions) select by node, shard crashes by shard.
type connInfo struct {
	node  int
	shard int
}

// SetTracer makes the network record an open-connection gauge and
// per-direction transmit byte counters for connections dialed afterwards.
func (n *Network) SetTracer(tr *trace.Tracer) {
	n.mu.Lock()
	n.tracer = tr
	n.mu.Unlock()
}

// NewNetwork builds the shared fabric for a cluster of the given size.
func NewNetwork(prof Profile, nodes int) *Network {
	if nodes < 1 {
		nodes = 1
	}
	n := &Network{prof: prof, nodes: nodes, live: make(map[*Conn]connInfo)}
	if prof.PathUpRate > 0 {
		n.pathUp = NewLimiter(prof.PathUpRate)
	}
	if prof.PathDownRate > 0 {
		n.pathDown = NewLimiter(prof.PathDownRate)
	}
	if prof.NATRate > 0 {
		n.natUp = NewLimiter(prof.NATRate)
		n.natDown = NewLimiter(prof.NATRate)
	}
	if prof.ServerNICRate > 0 {
		n.srvUp = NewLimiter(prof.ServerNICRate)
		n.srvDown = NewLimiter(prof.ServerNICRate)
	}
	penalty := prof.BusPenalty
	if penalty == 0 {
		penalty = 1.0
	}
	n.buses = make([]*Bus, nodes)
	n.icByNode = make([]*Limiter, nodes)
	for i := range n.buses {
		n.buses[i] = NewBusPenalty(prof.BusRate, penalty)
		if prof.ICRate > 0 {
			n.icByNode[i] = NewLimiter(prof.ICRate)
		}
	}
	return n
}

// Profile returns the profile the network was built from.
func (n *Network) Profile() Profile { return n.prof }

// Nodes returns the cluster size.
func (n *Network) Nodes() int { return n.nodes }

// Bus returns node i's I/O bus (never nil; may be infinite).
func (n *Network) Bus(node int) *Bus { return n.buses[n.clamp(node)] }

func (n *Network) clamp(node int) int {
	if node < 0 || node >= n.nodes {
		return 0
	}
	return node
}

// Conns reports how many shaped connections are currently open.
func (n *Network) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conns
}

// Dial opens a new shaped connection from the given node to the server,
// charging one RTT of connection setup, and returns both endpoints. The
// caller hands the server end to the SRB server (srb.Server.ServeConn).
func (n *Network) Dial(node int) (client, server net.Conn) {
	return n.DialShard(node, 0)
}

// DialShard is Dial toward a specific server shard of a federated fleet:
// identical shaping (every shard sits behind the same WAN path in the
// simulation), but the connection is tagged so KillShardConns can reset
// exactly one shard's streams — a single server crashing out of N.
func (n *Network) DialShard(node, shard int) (client, server net.Conn) {
	node = n.clamp(node)
	waitUntil(now().Add(n.prof.RTT())) // TCP handshake
	stream := n.prof.StreamRate()
	var upStream, downStream *Limiter
	if stream > 0 {
		upStream = NewLimiter(stream)
		downStream = NewLimiter(stream)
	}
	bus := n.buses[node].Stage(BusClassIO)
	up := compact(upStream, bus, n.natUp, n.pathUp, n.srvUp)
	down := compact(downStream, n.srvDown, n.pathDown, n.natDown, bus)
	c, s := Pipe(n.prof.OneWay, up, down)
	c.name = fmt.Sprintf("%s/node%d", n.prof.Name, node)
	c.spike = &n.spike
	s.spike = &n.spike
	n.mu.Lock()
	tr := n.tracer
	if n.prof.LatencyJitter > 0 {
		// Independent per-direction jitter sources with deterministic
		// per-connection seeds.
		n.jitterSeq++
		c.WithJitter(NewJitter(n.prof.LatencyJitter, n.jitterSeq))
		s.WithJitter(NewJitter(n.prof.LatencyJitter, n.jitterSeq+1<<32))
	}
	n.mu.Unlock()
	if tr.Enabled() {
		tr.Gauge("netsim.conns", 1)
		// Transmit counters are silent (aggregate only): Write runs on
		// whatever goroutine owns the stream, so an event here would make
		// trace order racy.
		c.tr, c.txCtr = tr, "netsim.client_tx_bytes"
		s.tr, s.txCtr = tr, "netsim.server_tx_bytes"
	}
	c.OnClose(func() {
		n.mu.Lock()
		n.conns--
		delete(n.live, c)
		n.mu.Unlock()
		tr.Gauge("netsim.conns", -1)
	})
	// Publish c only now: a concurrent KillConns may kill it as soon as
	// it is live, and Kill reads the fields set above.
	n.mu.Lock()
	n.conns++
	n.live[c] = connInfo{node: node, shard: shard}
	n.mu.Unlock()
	return c, s
}

// ErrPartitioned is the transient dial error for a partitioned node.
var ErrPartitioned = errors.New("netsim: node partitioned")

// DialFault reports whether node may dial right now: nil normally, a
// transient ErrPartitioned while the node's partition window is open.
// Dialers consult it before Dial so a partition blocks new connections as
// well as resetting established ones.
func (n *Network) DialFault(node int) error {
	node = n.clamp(node)
	n.mu.Lock()
	until, ok := n.partUntil[node]
	n.mu.Unlock()
	if ok && now().Before(until) {
		return fmt.Errorf("%w: node %d", ErrPartitioned, node)
	}
	return nil
}

// KillConns resets (RST, not EOF) every live connection dialed from node.
func (n *Network) KillConns(node int) {
	node = n.clamp(node)
	var victims []*Conn
	n.mu.Lock()
	for c, info := range n.live {
		if info.node == node {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	// Kill outside the lock: it runs the OnClose hook, which re-locks mu.
	for _, c := range victims {
		c.Kill()
	}
}

// KillShardConns resets every live connection to one server shard,
// whichever node dialed it — the fault surface of a single shard process
// dying in a federated fleet.
func (n *Network) KillShardConns(shard int) {
	var victims []*Conn
	n.mu.Lock()
	for c, info := range n.live {
		if info.shard == shard {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Kill()
	}
}

// KillAll resets every live connection — the server-crash fault: from the
// clients' point of view every established stream dies at once.
func (n *Network) KillAll() {
	var victims []*Conn
	n.mu.Lock()
	for c := range n.live {
		victims = append(victims, c)
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Kill()
	}
}

// Partition cuts node off for the duration d: its established connections
// are reset now and DialFault fails until the window elapses.
func (n *Network) Partition(node int, d time.Duration) {
	node = n.clamp(node)
	n.mu.Lock()
	if n.partUntil == nil {
		n.partUntil = make(map[int]time.Time)
	}
	n.partUntil[node] = now().Add(d)
	n.mu.Unlock()
	n.KillConns(node)
}

// PartitionShard cuts one server shard off for the duration d: every
// established connection to that shard resets now and ShardDialFault
// fails until the window elapses — an asymmetric split between the
// client side of the fleet and a single server, while the shard process
// itself keeps running (unlike KillShard, its journal stays attached).
func (n *Network) PartitionShard(shard int, d time.Duration) {
	n.mu.Lock()
	if n.shardPartUntil == nil {
		n.shardPartUntil = make(map[int]time.Time)
	}
	n.shardPartUntil[shard] = now().Add(d)
	n.mu.Unlock()
	n.KillShardConns(shard)
}

// ShardDialFault reports whether shard is dialable right now: nil
// normally, a transient ErrPartitioned while the shard's partition
// window is open. Shard dialers consult it before Dial, mirroring
// DialFault on the node side.
func (n *Network) ShardDialFault(shard int) error {
	n.mu.Lock()
	until, ok := n.shardPartUntil[shard]
	n.mu.Unlock()
	if ok && now().Before(until) {
		return fmt.Errorf("%w: shard %d", ErrPartitioned, shard)
	}
	return nil
}

// SetLatencySpike adds extra one-way latency to every delivery on every
// connection (current and future) until cleared with 0 — a congestion
// event or routing flap on the shared WAN path.
func (n *Network) SetLatencySpike(extra time.Duration) {
	n.spike.Store(int64(extra))
}

// LatencySpike implements the chaos Injector verb for SetLatencySpike.
func (n *Network) LatencySpike(extra time.Duration) { n.SetLatencySpike(extra) }

func compact(ls ...interface{}) []Stage {
	var out []Stage
	for _, l := range ls {
		switch v := l.(type) {
		case nil:
		case *Limiter:
			if v != nil {
				out = append(out, v)
			}
		case Stage:
			if v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// Fabric carries MPI traffic between ranks; it is the seam through which
// interconnect cost and bus contention reach the MPI runtime.
type Fabric interface {
	// Transfer accounts for nbytes moving from rank src to rank dst and
	// blocks for the modeled duration.
	Transfer(src, dst, nbytes int)
}

// Interconnect returns a Fabric that draws MPI traffic through each node's
// interconnect NIC and I/O bus. With Profile.BusRate set, MPI traffic and
// remote I/O traffic contend on the bus — the Section 7.1 effect.
func (n *Network) Interconnect() Fabric { return &icFabric{net: n} }

type icFabric struct{ net *Network }

func (f *icFabric) Transfer(src, dst, nbytes int) {
	n := f.net
	src, dst = n.clamp(src), n.clamp(dst)
	if src == dst {
		return // intra-node move through shared memory
	}
	// Serialization is reserved from the moment the latency ends, so a
	// message costs one wait and at most one wake-up delay.
	var lims []Stage
	if nbytes > 0 {
		lims = compact(n.icByNode[src], n.icByNode[dst],
			n.buses[src].Stage(BusClassMPI), n.buses[dst].Stage(BusClassMPI))
	}
	at := now().Add(n.prof.ICLatency)
	waitUntil(at.Add(reserveAll(lims, nbytes, at)))
}

// NullFabric is a Fabric with zero cost, for functional tests.
type NullFabric struct{}

// Transfer implements Fabric with no delay.
func (NullFabric) Transfer(src, dst, nbytes int) {}
