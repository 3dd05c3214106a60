package transport

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestConnMux drives one Conn on a two-host network through its mux:
// the receiver's cumulative ACKs over out-of-order and repeated segments,
// the echoed send times, the split between the sender's ACK handler and the
// receiver, and what Finish closes.
func TestConnMux(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	b := g.AddNode(topology.Host, "b", 0)
	g.AddDuplex(a, b, 1e9, 1e-3, 1)
	s := sim.New()
	n := netsim.New(s, g, netsim.DefaultConfig())
	m := NewMux(n)

	type ack struct {
		seq    int64
		sentAt sim.Time
	}
	var acks []ack
	var fcts []sim.Time
	c := &Conn{ID: 1, Src: a, Dst: b, Size: 5 * MSS, OnComplete: func(d sim.Time) { fcts = append(fcts, d) }}
	onAck := func(p *netsim.Packet) {
		if !p.Ack || p.Src != b || p.Dst != a || p.Flow != 1 || p.Size != AckBytes {
			t.Errorf("the ACK handler got %+v", *p)
		}
		acks = append(acks, ack{p.AckSeq, p.SentAt})
	}
	s.At(0.25, func() { c.Open(m, onAck) })

	// Segment 2 before 1, 1 twice, 4 before 3; one link delivers in order.
	seqs := []int64{0, 2, 1, 1, 4, 3}
	want := []int64{1, 1, 3, 3, 3, 5}
	for i, seq := range seqs {
		seq := seq
		s.At(0.5+0.1*float64(i), func() { c.Send(seq) })
	}
	s.RunUntil(2)
	if m.Len() != 1 || c.Done() || c.Segments() != 5 {
		t.Fatalf("open transfer: Len %d, Done %v, Segments %d", m.Len(), c.Done(), c.Segments())
	}
	if len(acks) != len(seqs) {
		t.Fatalf("%d ACKs for %d segments", len(acks), len(seqs))
	}
	for i, got := range acks {
		if sent := 0.5 + 0.1*float64(i); got.seq != want[i] || got.sentAt != sent {
			t.Errorf("ACK %d = (%d, sent %v), want (%d, sent %v)", i, got.seq, got.sentAt, want[i], sent)
		}
	}

	// A packet of an unknown flow reaches nothing: no ACK comes back.
	delivered := n.Delivered
	n.Send(&netsim.Packet{Flow: 9, Src: a, Dst: b, Size: 100})
	n.Send(&netsim.Packet{Flow: 9, Src: b, Dst: a, Size: 100, Ack: true})
	s.RunUntil(3)
	if n.Delivered != delivered+2 || len(acks) != len(seqs) {
		t.Fatalf("unknown flow: %d deliveries, %d ACKs", n.Delivered-delivered, len(acks)-len(seqs))
	}

	s.At(3.5, c.Finish)
	s.At(4, c.Finish)
	s.RunUntil(5)
	if len(fcts) != 1 || fcts[0] != 3.5-0.25 {
		t.Fatalf("OnComplete got %v, want one FCT of %v", fcts, 3.5-0.25)
	}
	if m.Len() != 0 || !c.Done() {
		t.Fatalf("finished transfer: Len %d, Done %v", m.Len(), c.Done())
	}

	// After Finish, neither a data segment nor an ACK reaches anything.
	delivered = n.Delivered
	c.Send(0)
	n.Send(&netsim.Packet{Flow: 1, Src: b, Dst: a, Size: AckBytes, Ack: true})
	s.RunUntil(6)
	if n.Delivered != delivered+2 || len(acks) != len(seqs) {
		t.Fatalf("after Finish: %d deliveries, %d ACKs", n.Delivered-delivered, len(acks)-len(seqs))
	}
}

func TestFlowIDSourceUnique(t *testing.T) {
	var src FlowIDSource
	seen := map[netsim.FlowID]bool{}
	for i := 0; i < 1000; i++ {
		id := src.Next()
		if id <= 0 || seen[id] {
			t.Fatalf("ID %d invalid or repeated", id)
		}
		seen[id] = true
	}
}

func TestHashSpreads(t *testing.T) {
	// consecutive flow IDs must map to well-spread hashes (ECMP balance)
	buckets := make([]int, 8)
	for i := 1; i <= 8000; i++ {
		buckets[Hash(netsim.FlowID(i))%8]++
	}
	for i, b := range buckets {
		if b < 800 || b > 1200 {
			t.Fatalf("bucket %d has %d of 8000: hash imbalanced", i, b)
		}
	}
}

func TestSegmentsProperties(t *testing.T) {
	f := func(raw uint32) bool {
		size := int64(raw % (100 << 20))
		segs := Segments(size)
		if size == 0 {
			return segs == 0
		}
		// enough segments to carry the payload, none wasted
		return segs*MSS >= size && (segs-1)*MSS < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentWireSums(t *testing.T) {
	f := func(raw uint32) bool {
		size := int64(raw%(10<<20)) + 1
		segs := Segments(size)
		var payload int64
		for s := int64(0); s < segs; s++ {
			w := SegmentWire(size, s)
			if w <= HeaderBytes || w > DataPacketBytes {
				return false
			}
			payload += int64(w - HeaderBytes)
		}
		return payload == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
