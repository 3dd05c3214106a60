package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventLoop measures the schedule→fire cycle of the event core.
// depth is the number of events outstanding at any moment — depth=1 is the
// pure scheduling overhead, depth=1024 exercises a deep heap, and
// lane/depth=1024 keeps as many events outstanding on one Lane, which
// holds one heap slot, as a link does for its packets in propagation.
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
}
