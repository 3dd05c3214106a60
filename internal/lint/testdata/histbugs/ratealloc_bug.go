// Package histbugs reconstructs determinism bugs this repository once
// shipped — each a range over a map feeding an order-sensitive result — as
// a regression corpus proving the maprange analyzer would have caught them.
package histbugs

// LinkDemand sums per-link flow demands the way the pre-PR 1 rate
// allocator did: ranging the link's flow map and accumulating float
// demand, so the converged allocation differed run to run in the last
// few ulps.
func LinkDemand(flows map[int64]float64) float64 {
	demand := 0.0
	for _, d := range flows {
		demand += d // want "float accumulation inside range over map"
	}
	return demand
}
