package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventLoop measures the schedule→fire cycle of the event core.
// depth is the number of events outstanding at any moment. depth=1 is the
// pure scheduling overhead. At depth=1024 every event is scheduled one
// second after the current instant, so the queue only ever holds two
// distinct times: the row measures a deep run of equal-time ties, not a
// spread queue. lane/depth=1024 keeps as many events outstanding on one
// Lane, which holds one queue slot, as a link does for its packets in
// propagation. The hold rows are the spread queue of a packet run: every
// fired event schedules one more at now + Exp(1) from a seeded RNG, and
// one in twenty also cancels and re-arms a 2 s timer, as the transports
// re-arm their retransmission timers on an ACK.
func BenchmarkEventLoop(b *testing.B) {
	for _, depth := range []int{1, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New()
			fired := 0
			var tick func()
			tick = func() {
				fired++
				if fired+depth-1 < b.N {
					s.After(1, tick)
				}
			}
			for i := 0; i < depth && i < b.N; i++ {
				s.After(1, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
	b.Run("lane/depth=1024", func(b *testing.B) {
		const depth = 1024
		s := New()
		l := s.NewLane()
		fired := 0
		var tick func(any)
		tick = func(any) {
			fired++
			if fired+depth-1 < b.N {
				l.AfterArg(1, tick, nil)
			}
		}
		for i := 0; i < depth && i < b.N; i++ {
			l.AfterArg(1, tick, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
	for _, depth := range []int{16, 256} {
		b.Run(fmt.Sprintf("hold/depth=%d", depth), func(b *testing.B) {
			s := New()
			rng := NewRNG(1)
			fired := 0
			var timer Event
			expire := func() {}
			var tick func()
			tick = func() {
				fired++
				if fired%20 == 0 {
					timer.Cancel()
					timer = s.After(2, expire)
				}
				if fired+depth-1 < b.N {
					s.After(rng.Exp(1), tick)
				}
			}
			for i := 0; i < depth && i < b.N; i++ {
				s.After(rng.Exp(1), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
}
