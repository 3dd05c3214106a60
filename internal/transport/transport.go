// Package transport is what the two transports in this repository share:
// the TCP Reno baseline (internal/tcp) and the SCDA rate-paced transport
// (internal/scdatp).
//
// A Conn is one transfer less its sender's policy: its identity, the
// data-segment and ACK packet format, the receiver's cumulative ACK over
// its out-of-order set, and completion. A Mux, one per network, hands
// each packet of an open transfer to its sender's ACK handler when the
// packet is an ACK, and to its Conn's receiver otherwise. Each sender
// embeds a Conn and keeps only its window and timer policy: Reno's
// loss-driven window, fast recovery and backed-off RTO, or SCDA's
// rate×RTT window, pacing and echoed-timestamp SRTT.
//
// A FlowIDSource hands out unique flow identifiers, which also serve as
// ECMP hashes.
package transport

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Mux delivers the packets of a network's open transfers. A packet of a
// transfer that is not open reaches nothing.
type Mux struct {
	Net   *netsim.Network         // the network it listens on
	conns map[netsim.FlowID]*Conn // the open transfers
}

// NewMux returns the mux of network n, listening at every node.
func NewMux(n *netsim.Network) *Mux {
	m := &Mux{Net: n, conns: make(map[netsim.FlowID]*Conn)}
	h := m.dispatch
	for id := range n.Graph.Nodes {
		n.Listen(topology.NodeID(id), h)
	}
	return m
}

func (m *Mux) dispatch(p *netsim.Packet) {
	if c, ok := m.conns[p.Flow]; ok {
		if p.Ack {
			c.onAck(p)
		} else {
			c.receive(p)
		}
	}
}

// Len returns the number of open transfers.
func (m *Mux) Len() int { return len(m.conns) }

// Conn is one transfer of Size bytes from Src to Dst. A sender embeds it,
// opens it on a mux with its ACK handler, transmits with Send and ends it
// with Finish; the Conn's receiver acknowledges every data segment.
type Conn struct {
	ID   netsim.FlowID
	Src  topology.NodeID
	Dst  topology.NodeID
	Size int64

	// OnComplete fires once, at the first Finish, with the flow
	// completion time measured from Open.
	OnComplete func(fct sim.Time)
	// Retransmits counts segments re-sent (diagnostics).
	Retransmits int64

	mux   *Mux
	onAck func(*netsim.Packet)
	hash  uint64
	start sim.Time
	segs  int64
	done  bool

	// receiver: every segment below cumRcvd has arrived, and rcvd holds
	// those above it that arrived out of order.
	rcvd    map[int64]bool
	cumRcvd int64
}

// Open starts the transfer's clock and registers it with m, which hands
// its ACKs to onAck until Finish. It panics on a transfer of no bytes.
func (c *Conn) Open(m *Mux, onAck func(*netsim.Packet)) {
	if c.Size <= 0 {
		panic("transport: flow size must be positive")
	}
	c.mux, c.onAck = m, onAck
	c.hash = Hash(c.ID)
	c.start = m.Net.Sim.Now()
	c.segs = Segments(c.Size)
	c.rcvd = make(map[int64]bool)
	m.conns[c.ID] = c
}

// Segments returns the number of segments the transfer carries.
func (c *Conn) Segments() int64 { return c.segs }

// Done reports whether the transfer has finished.
func (c *Conn) Done() bool { return c.done }

// Send transmits data segment seq, stamped with the current time.
func (c *Conn) Send(seq int64) {
	p := c.mux.Net.NewPacket()
	p.Flow, p.Src, p.Dst, p.Hash = c.ID, c.Src, c.Dst, c.hash
	p.Seq = seq
	p.Size = SegmentWire(c.Size, seq)
	p.SentAt = c.mux.Net.Sim.Now()
	c.mux.Net.Send(p)
}

// receive runs at Dst: it records the segment and acknowledges
// cumulatively, echoing the segment's send time so that a sender can take
// its RTT from the ACK ("the receiving cloud server can obtain the RTT
// from the time stamp values in the headers", section VIII-A step 8).
func (c *Conn) receive(p *netsim.Packet) {
	if p.Seq >= c.cumRcvd && !c.rcvd[p.Seq] {
		c.rcvd[p.Seq] = true
		for c.rcvd[c.cumRcvd] {
			delete(c.rcvd, c.cumRcvd)
			c.cumRcvd++
		}
	}
	ack := c.mux.Net.NewPacket()
	ack.Flow, ack.Src, ack.Dst, ack.Hash = c.ID, c.Dst, c.Src, c.hash
	ack.Ack = true
	ack.AckSeq = c.cumRcvd
	ack.Size = AckBytes
	ack.SentAt = p.SentAt
	c.mux.Net.Send(ack)
}

// Finish ends the transfer: the mux forgets it, and OnComplete gets the
// time since Open. Only the first call does anything.
func (c *Conn) Finish() {
	if c.done {
		return
	}
	c.done = true
	delete(c.mux.conns, c.ID)
	if c.OnComplete != nil {
		c.OnComplete(c.mux.Net.Sim.Now() - c.start)
	}
}

// FlowIDSource allocates unique flow IDs.
type FlowIDSource struct{ next netsim.FlowID }

// Next returns a fresh flow ID, starting at 1.
func (f *FlowIDSource) Next() netsim.FlowID {
	f.next++
	return f.next
}

// Hash derives the ECMP hash for a flow ID with a 64-bit mix so that
// consecutive IDs spread across equal-cost paths.
func Hash(id netsim.FlowID) uint64 {
	z := uint64(id) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return z ^ (z >> 27)
}

// Wire sizes shared by both transports.
const (
	// MSS is the data payload per packet in bytes.
	MSS = 1460
	// HeaderBytes covers IP+TCP-style headers.
	HeaderBytes = 40
	// DataPacketBytes is the on-wire size of a full data packet.
	DataPacketBytes = MSS + HeaderBytes
	// AckBytes is the on-wire size of a pure acknowledgement.
	AckBytes = HeaderBytes
)

// Segments returns the number of MSS-sized segments needed for size bytes.
func Segments(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return (size + MSS - 1) / MSS
}

// SegmentWire returns the on-wire size of segment seq of a size-byte
// transfer (the final segment may be short).
func SegmentWire(size int64, seq int64) int {
	total := Segments(size)
	if seq < total-1 {
		return DataPacketBytes
	}
	last := int(size - (total-1)*MSS)
	return last + HeaderBytes
}
