// Package netsim is a packet-level datacenter network simulator — the
// repository's stand-in for NS2, in which the paper implemented SCDA.
//
// It simulates store-and-forward transmission over the links of a
// topology.Graph: each link has finite capacity, propagation delay, and a
// drop-tail FIFO queue (optionally the per-flow packet-count discipline of
// section IV-B, which approximates shortest-job-first the way the paper
// describes OpenFlow switches doing it). Switches forward by destination
// using ECMP routing; hosts hand received packets to registered transport
// endpoints (TCP Reno for the RandTCP baseline, the SCDA windowed transport
// for SCDA).
//
// The per-link byte and queue counters feed the SCDA resource monitors and
// allocators: Q(t) and Λ(t) in equations 2 and 5 are read directly from the
// simulated switch interfaces, mirroring how the paper's RMs and RAs "get
// the values of Q from the local switch ... as all switches maintain the
// queue length in each of their interfaces".
//
// The forwarding path is allocation-free in steady state: Packet structs
// are pooled on a per-Network free list (deterministic LIFO, not
// sync.Pool, so reuse order — and therefore memory layout — is identical
// across same-seed runs), per-port queues are ring buffers, and the hop
// events reuse long-lived callbacks instead of capturing closures.
//
// What a transmission costs: one event per hop, the far-end arrival, which
// goes on the link's sim.Lane (a link delivers in the order it transmits,
// so its packets in propagation take one queue slot per link, not one per
// packet, and fire in the same order). The transmit-complete is reserved
// with sim.Reserve where the transmission starts, and queued under that
// key (sim.AtMarkArg) only when a packet is queued behind the transmission:
// then it starts the next one. A completion that finds its port empty
// would only clear busy and add SentBytes, so no event is spent on it;
// whoever reads the port next (enqueue, Stats, LinkUtilization) settles it
// once sim.Reached reports that it would have fired. A packet that
// arrives at the instant a transmission ends still finds the port as the
// event would have left it, because Reached compares sequence numbers as
// the event queue does, and SentBytes is exact at every read.
package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Packet is a simulated datagram.
//
// Ownership: a packet handed to Network.Send belongs to the network until
// it is dropped or delivered; after the destination handler (and the
// OnDeliver hook) return, the network zeroes and recycles it. Handlers
// must not retain the pointer past their return. Allocate with NewPacket
// to draw from the pool; a literal &Packet{} also works (it simply joins
// the pool when recycled).
type Packet struct {
	Flow    FlowID
	Src     topology.NodeID
	Dst     topology.NodeID
	Seq     int64
	Ack     bool
	AckSeq  int64
	Size    int // bytes on the wire
	Hash    uint64
	SentAt  sim.Time // stamped at first transmission by the sender
	Payload any      // transport-specific extra state

	hop topology.NodeID // next node while in flight on a link
}

// FlowID identifies a transport flow end-to-end.
type FlowID int64

// Handler receives packets addressed to a host.
type Handler func(*Packet)

// QueueDiscipline selects the per-port scheduling behaviour.
type QueueDiscipline int

const (
	// FIFO is drop-tail first-in-first-out (default, NS2 DropTail).
	FIFO QueueDiscipline = iota
	// SmallestFlowFirst serves the queued packet whose flow has the
	// smallest cumulative packet count through this port: the OpenFlow
	// SJF approximation of section IV-B.
	SmallestFlowFirst
)

// LinkStats aggregates per-link counters for the monitors and for
// experiment reporting.
type LinkStats struct {
	// QueuedBytes is the current queue occupancy (the Q(t) of eq. 2,
	// in bytes; monitors convert to bits).
	QueuedBytes int
	// ArrivedBytes counts all bytes that arrived at this port since the
	// simulation started (feeds Λ in eq. 5 via interval differencing).
	ArrivedBytes int64
	// SentBytes counts bytes fully transmitted.
	SentBytes int64
	// Drops counts packets discarded by drop-tail.
	Drops int64
	// Packets counts packet arrivals.
	Packets int64
}

// pktRef is one ring-buffer entry: the packet plus its flow's dense index
// in the port's counter table (SJF only; -1 under FIFO), resolved once at
// enqueue so the pick-next scan never touches a map.
type pktRef struct {
	pkt  *Packet
	fidx int32
}

// ring is a power-of-two circular queue of pktRef. It supports O(1) push
// and head-pop plus positional removal (shifting the shorter side) for the
// SJF discipline.
type ring struct {
	buf  []pktRef
	head int
	n    int
}

//scda:noalloc
func (r *ring) at(i int) *pktRef { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

//scda:noalloc steady state: grow is amortized pool growth in the callee
func (r *ring) push(v pktRef) {
	if r.n == len(r.buf) {
		r.grow()
	}
	*r.at(r.n) = v
	r.n++
}

func (r *ring) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 64
	}
	nb := make([]pktRef, size)
	for i := 0; i < r.n; i++ {
		nb[i] = *r.at(i)
	}
	r.buf = nb
	r.head = 0
}

// removeAt deletes and returns entry i, shifting whichever side is
// shorter.
//
//scda:noalloc
func (r *ring) removeAt(i int) pktRef {
	v := *r.at(i)
	if i < r.n-1-i {
		for j := i; j > 0; j-- {
			*r.at(j) = *r.at(j - 1)
		}
		*r.at(0) = pktRef{}
		r.head = (r.head + 1) & (len(r.buf) - 1)
	} else {
		for j := i; j < r.n-1; j++ {
			*r.at(j) = *r.at(j + 1)
		}
		*r.at(r.n - 1) = pktRef{}
	}
	r.n--
	return v
}

type linkState struct {
	link    topology.Link
	q       ring
	queuedB int
	limitB  int
	busy    bool
	txSize  int       // bytes of the packet currently on the wire
	done    sim.Mark  // the transmit-complete's key, reserved at startTx
	armed   bool      // the transmit-complete is queued under done
	prop    *sim.Lane // far-end arrivals, in transmit order
	stats   LinkStats

	// SJF state: flows get a dense per-port index on first arrival;
	// counts is the cumulative packet count per dense index. Replaces a
	// map[FlowID]int64 that was rehashed on every enqueue and probed
	// O(queue) times per transmission.
	sjf     bool
	flowIdx map[FlowID]int32
	counts  []int64
}

// Config tunes the network simulation.
type Config struct {
	// QueueBytes is the per-port buffer in bytes. The fig. 6 fabric has
	// 10 ms links and 50 ms WAN access, so the bandwidth-delay product at
	// X = 500 Mb/s is several megabytes; the 1 MB default is a fraction
	// of BDP (as in the paper's NS2 setup, where DropTail buffers absorb
	// multi-RTT transients) while still small enough that a congested
	// port drops rather than buffering indefinitely.
	QueueBytes int
	// Discipline selects FIFO or SmallestFlowFirst.
	Discipline QueueDiscipline
}

// DefaultConfig returns the standard drop-tail configuration.
func DefaultConfig() Config {
	return Config{QueueBytes: 1 << 20, Discipline: FIFO}
}

// Network binds a topology, routing tables and the event engine into a
// running packet network.
type Network struct {
	Sim    *sim.Simulator
	Graph  *topology.Graph
	Routes *topology.Routing
	cfg    Config

	links    []*linkState
	handlers []Handler

	// free is the packet pool: a plain LIFO slice so that reuse order is
	// deterministic (sync.Pool's per-P caches would make packet identity
	// depend on scheduling).
	free []*Packet

	// txDoneFn and arriveFn are the per-hop event callbacks, created once
	// so the hot path schedules events without allocating closures.
	txDoneFn func(any)
	arriveFn func(any)

	// TotalDrops counts drops across all ports.
	TotalDrops int64
	// Delivered counts packets handed to host handlers.
	Delivered int64

	// OnDeliver, when set, observes every packet handed to a host
	// handler (experiment instrumentation). The packet is recycled after
	// the hook returns; do not retain it.
	OnDeliver func(*Packet)
}

// New creates a network over the graph with routing precomputed.
func New(s *sim.Simulator, g *topology.Graph, cfg Config) *Network {
	if cfg.QueueBytes <= 0 {
		panic("netsim: QueueBytes must be positive")
	}
	n := &Network{
		Sim:      s,
		Graph:    g,
		Routes:   topology.ComputeRouting(g),
		cfg:      cfg,
		links:    make([]*linkState, len(g.Links)),
		handlers: make([]Handler, len(g.Nodes)),
	}
	states := make([]linkState, len(g.Links)) // one backing array, cache-friendly
	for i, l := range g.Links {
		ls := &states[i]
		ls.link = l
		ls.limitB = cfg.QueueBytes
		ls.prop = s.NewLane()
		if cfg.Discipline == SmallestFlowFirst {
			ls.sjf = true
			ls.flowIdx = make(map[FlowID]int32)
		}
		n.links[i] = ls
	}
	n.txDoneFn = func(arg any) {
		ls := arg.(*linkState)
		ls.stats.SentBytes += int64(ls.txSize)
		n.startTx(ls) // armed only behind a queued packet, so one waits
	}
	n.arriveFn = func(arg any) {
		pkt := arg.(*Packet)
		n.forward(pkt.hop, pkt)
	}
	return n
}

// NewPacket returns a zeroed packet, reusing one the network has finished
// with when possible.
//
//scda:noalloc warm path: a drained pool falls back to one pooled &Packet{}
func (n *Network) NewPacket() *Packet {
	if k := len(n.free); k > 0 {
		p := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return p
	}
	return &Packet{}
}

// recycle zeroes a finished packet and returns it to the pool.
//
//scda:noalloc steady state: the pool append is amortized growth
func (n *Network) recycle(p *Packet) {
	*p = Packet{}
	n.free = append(n.free, p)
}

// Listen registers the packet handler for a host node. A nil handler
// unregisters.
func (n *Network) Listen(node topology.NodeID, h Handler) {
	n.handlers[node] = h
}

// Send injects a packet at its source host. The packet is forwarded hop by
// hop to pkt.Dst; delivery invokes the destination's handler. Packets to
// unreachable destinations are dropped silently (counted in TotalDrops).
// The network owns the packet from this point on (see Packet).
//
//scda:noalloc guarded by TestForwardDeliverIsAllocationFree
func (n *Network) Send(pkt *Packet) {
	if pkt.Size <= 0 {
		panic(fmt.Sprintf("netsim: packet with size %d", pkt.Size))
	}
	n.forward(pkt.Src, pkt)
}

// forward routes a packet one hop: deliver at the destination, else pick
// the ECMP next link and enqueue.
//
//scda:noalloc
func (n *Network) forward(at topology.NodeID, pkt *Packet) {
	if at == pkt.Dst {
		n.deliver(pkt)
		return
	}
	lid, err := n.Routes.NextLink(at, pkt.Dst, pkt.Hash)
	if err != nil {
		n.TotalDrops++
		n.recycle(pkt)
		return
	}
	n.enqueue(n.links[lid], pkt)
}

// deliver hands a packet to its destination's handler and recycles it.
//
//scda:noalloc
func (n *Network) deliver(pkt *Packet) {
	n.Delivered++
	if n.OnDeliver != nil {
		n.OnDeliver(pkt)
	}
	if h := n.handlers[pkt.Dst]; h != nil {
		h(pkt)
	}
	n.recycle(pkt)
}

// settle applies a transmit-complete that was never queued once its key
// is reached: the port went idle then.
//
//scda:noalloc
func (n *Network) settle(ls *linkState) {
	if ls.busy && !ls.armed && n.Sim.Reached(ls.done) {
		ls.busy = false
		ls.stats.SentBytes += int64(ls.txSize)
	}
}

// enqueue applies drop-tail admission, updates the SJF flow counters, and
// starts transmission if the port is idle, or else queues the
// transmit-complete that will.
//
//scda:noalloc steady state: the SJF flow-index insert is one-time per flow
func (n *Network) enqueue(ls *linkState, pkt *Packet) {
	n.settle(ls)
	ls.stats.ArrivedBytes += int64(pkt.Size)
	ls.stats.Packets++
	if ls.queuedB+pkt.Size > ls.limitB {
		ls.stats.Drops++
		n.TotalDrops++
		n.recycle(pkt)
		return
	}
	fidx := int32(-1)
	if ls.sjf {
		var ok bool
		fidx, ok = ls.flowIdx[pkt.Flow]
		if !ok {
			fidx = int32(len(ls.counts))
			ls.flowIdx[pkt.Flow] = fidx
			ls.counts = append(ls.counts, 0)
		}
		ls.counts[fidx]++
	}
	ls.q.push(pktRef{pkt: pkt, fidx: fidx})
	ls.queuedB += pkt.Size
	ls.stats.QueuedBytes = ls.queuedB
	if !ls.busy {
		n.startTx(ls)
	} else if !ls.armed {
		ls.armed = true
		n.Sim.AtMarkArg(ls.done, n.txDoneFn, ls)
	}
}

// pickNext chooses which queued packet to transmit next per the
// discipline: head-of-line for FIFO, the earliest-queued packet of the
// flow with the fewest cumulative packets through this port for SJF.
//
//scda:noalloc
func (ls *linkState) pickNext() int {
	if !ls.sjf || ls.q.n == 1 {
		return 0
	}
	best := 0
	bestCount := ls.counts[ls.q.at(0).fidx]
	for i := 1; i < ls.q.n; i++ {
		if c := ls.counts[ls.q.at(i).fidx]; c < bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// startTx puts the chosen queued packet on the wire, reserves its
// transmit-complete (queued now only if packets wait behind it), and puts
// the far-end arrival on the link's propagation lane. The reservation
// takes its sequence number before the lane push, as the event it stands
// for did, so every other event keeps its key.
//
//scda:noalloc
func (n *Network) startTx(ls *linkState) {
	ref := ls.q.removeAt(ls.pickNext())
	pkt := ref.pkt
	ls.queuedB -= pkt.Size
	ls.stats.QueuedBytes = ls.queuedB
	ls.busy = true
	ls.txSize = pkt.Size
	pkt.hop = ls.link.To

	txTime := float64(pkt.Size*8) / ls.link.Capacity
	// transmission complete: queued only to chain a waiting packet
	ls.done = n.Sim.Reserve(n.Sim.Now() + txTime)
	if ls.armed = ls.q.n > 0; ls.armed {
		n.Sim.AtMarkArg(ls.done, n.txDoneFn, ls)
	}
	// arrival at the far end after propagation
	ls.prop.AfterArg(txTime+ls.link.Delay, n.arriveFn, pkt)
}

// SetCapacity changes a link's transmission capacity at runtime — the
// "reserve, backup or recovery links" activation of section IV-A. It
// affects packets whose transmission starts after the call.
func (n *Network) SetCapacity(l topology.LinkID, capacity float64) {
	if capacity <= 0 {
		panic("netsim: non-positive capacity")
	}
	n.links[l].link.Capacity = capacity
}

// Stats returns a copy of the counters for a link.
func (n *Network) Stats(l topology.LinkID) LinkStats {
	n.settle(n.links[l])
	return n.links[l].stats
}

// QueueBits returns the instantaneous queue occupancy of a link in bits —
// the Q_{d,u}(t) term the RM/RA read from their local switch.
func (n *Network) QueueBits(l topology.LinkID) float64 {
	return float64(n.links[l].queuedB * 8)
}

// ArrivedBits returns cumulative arrived bits on a link; monitors diff
// successive readings to get the per-interval L (and Λ = L/τ) of eq. 5.
func (n *Network) ArrivedBits(l topology.LinkID) float64 {
	return float64(n.links[l].stats.ArrivedBytes * 8)
}

// LinkUtilization returns sent bits divided by capacity×elapsed, a
// diagnostic for experiments.
func (n *Network) LinkUtilization(l topology.LinkID, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	n.settle(n.links[l])
	return float64(n.links[l].stats.SentBytes*8) / (n.links[l].link.Capacity * elapsed)
}
