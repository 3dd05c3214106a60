package netsim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkPacketForwarding measures the per-packet cost of the full
// store-and-forward path (enqueue, transmit, propagate, deliver) with a
// closed loop: each delivery injects the next packet, and every iteration
// is one end-to-end packet. The fifo and sjf rows keep 8 packets in
// flight: 8 transmissions take 96 of every 112 µs round, so about two
// transmit-completes in three (6,348 per 10,000 packets) have a packet
// waiting and are queued to start it. The idle row keeps one, so every
// transmit-complete finds the port empty and is only reserved.
func BenchmarkPacketForwarding(b *testing.B) {
	bench := func(b *testing.B, disc QueueDiscipline, inflight int) {
		s := sim.New()
		g := topology.NewGraph()
		src := g.AddNode(topology.Host, "src", 0)
		dst := g.AddNode(topology.Host, "dst", 0)
		g.AddDuplex(src, dst, 1e9, 1e-4, 1)
		n := New(s, g, Config{QueueBytes: 1 << 20, Discipline: disc})

		delivered := 0
		seq := int64(0)
		inject := func() {
			p := n.NewPacket()
			p.Flow = FlowID(seq % 4)
			p.Src = src
			p.Dst = dst
			p.Seq = seq
			p.Size = 1500
			p.Hash = uint64(seq % 4)
			seq++
			n.Send(p)
		}
		n.Listen(dst, func(p *Packet) {
			delivered++
			if delivered+inflight-1 < b.N {
				inject()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < inflight && i < b.N; i++ {
			inject()
		}
		s.Run()
	}
	b.Run("fifo", func(b *testing.B) { bench(b, FIFO, 8) })
	b.Run("sjf", func(b *testing.B) { bench(b, SmallestFlowFirst, 8) })
	b.Run("idle", func(b *testing.B) { bench(b, FIFO, 1) })
}
