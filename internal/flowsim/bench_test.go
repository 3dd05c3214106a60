package flowsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// benchWorkload builds n flows with 3-hop paths drawn from a pool of links
// by a fixed LCG, so the workload is identical across runs and across
// solver implementations.
func benchWorkload(n int) ([]*Flow, []float64) {
	nLinks := n/2 + 4
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1e9
	}
	state := uint64(12345)
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	flows := make([]*Flow, n)
	for i := range flows {
		path := []topology.LinkID{
			topology.LinkID(next(nLinks)),
			topology.LinkID(next(nLinks)),
			topology.LinkID(next(nLinks)),
		}
		flows[i] = &Flow{ID: int64(i), Path: path, Size: 1e6, Weight: 1}
	}
	return flows, caps
}

// BenchmarkMaxMinRates measures one full progressive-filling recomputation,
// the operation the incremental solver's prefix replay avoids. Uses an
// owned warm Solver (not the pooled MaxMinRates wrapper) so the 0 allocs/op
// figure is a stable property of the solver, not of sync.Pool weather.
func BenchmarkMaxMinRates(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			flows, caps := benchWorkload(n)
			sv := NewSolver(len(caps))
			sv.Solve(flows, caps) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv.Solve(flows, caps)
			}
		})
	}
}

// churnState holds a warm incremental allocation plus one spare flow, so a
// benchmark op is exactly one remove + one add (the event pattern the
// Simulator generates) with zero setup inside the timed loop.
type churnState struct {
	inc   *Incremental
	caps  []float64
	flows []*Flow
	spare *Flow
	i     int
}

func newChurnState(b testing.TB, n int) *churnState {
	flows, caps := benchWorkload(n + 1)
	spare := flows[n]
	flows = flows[:n]
	inc := NewIncremental(caps)
	if err := inc.Apply(flows, nil); err != nil {
		b.Fatal(err)
	}
	return &churnState{inc: inc, caps: caps, flows: flows, spare: spare}
}

// step retires one resident flow and admits the previous victim in its
// place, cycling through the population so successive ops hit different
// links.
func (c *churnState) step(b testing.TB) {
	victim := c.flows[c.i]
	c.oneOut(b, victim, c.spare)
	c.flows[c.i] = c.spare
	c.spare = victim
	c.i = (c.i + 1) % len(c.flows)
}

func (c *churnState) oneOut(b testing.TB, out, in_ *Flow) {
	if err := c.inc.Apply([]*Flow{in_}, []*Flow{out}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChurn measures the per-event cost of keeping max-min rates
// exact under single-flow churn: "incremental" uses the prefix-replaying
// Incremental solver, "full" re-solves from scratch after every event
// (the pre-incremental behavior, kept as the speedup baseline at 10k —
// at 100k a full solve per event is too slow to benchmark honestly).
func BenchmarkChurn(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("incremental/flows=%d", n), func(b *testing.B) {
			c := newChurnState(b, n)
			c.step(b) // warm scratch and trace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step(b)
			}
		})
	}
	b.Run("full/flows=10000", func(b *testing.B) {
		c := newChurnState(b, 10000)
		sv := NewSolver(len(c.caps))
		sv.Solve(c.flows, c.caps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// same event pattern, but answered with a full re-solve
			victim := c.flows[c.i]
			c.flows[c.i] = c.spare
			c.spare = victim
			c.i = (c.i + 1) % len(c.flows)
			sv.Solve(c.flows, c.caps)
		}
	})
}

// fluidBench precomputes a whole fluid workload (arrival times, sizes,
// and paths routed once) so the benchmarks time the simulator, not
// routing or generation.
type fluidBench struct {
	sim     *Simulator
	at      []float64
	size    []float64
	paths   [][]topology.LinkID
	horizon float64
	done    int // completions every run must reproduce
}

// newFluidBench is the 1000-flow workload on the default fig. 6 tree:
// 1 MB flows arriving every millisecond, all run to completion.
func newFluidBench(b testing.TB) *fluidBench {
	tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
	if err != nil {
		b.Fatal(err)
	}
	r := topology.ComputeRouting(tt.Graph)
	fb := &fluidBench{sim: New(tt.Graph), horizon: 1e6, done: 1000}
	for j := 0; j < 1000; j++ {
		src := tt.Clients[j%len(tt.Clients)]
		dst := tt.Servers[(j*3)%len(tt.Servers)]
		path, err := r.Path(src, dst, uint64(j))
		if err != nil {
			b.Fatal(err)
		}
		fb.at = append(fb.at, float64(j)*0.001)
		fb.size = append(fb.size, 1e6)
		fb.paths = append(fb.paths, path)
	}
	return fb
}

// fabricSpec is the 500-client / 200-server fabric of the sim-fluid
// benchmark workload and scenarios/fluid-100k.json.
func fabricSpec() topology.ThreeTierSpec {
	spec := topology.DefaultThreeTier()
	spec.Clients, spec.Racks, spec.ServersPerRack, spec.AggSwitches = 500, 25, 8, 5
	spec.X, spec.K, spec.CoreFactor = 5e6, 5, 40
	return spec
}

// newFabricBench is churn on the 500/200 fabric shaped like the sim-fluid
// churn specs: Poisson arrivals at 450/s for 2 s (~900 flows) from uniform
// clients to uniform servers, Pareto sizes (shape 1.6, mean 0.5 MB,
// capped at 100 MiB), run to a 6 s horizon, by which several hundred
// flows are resident and the heavy tail is still in flight.
func newFabricBench(b testing.TB) *fluidBench {
	tt, err := topology.BuildThreeTier(fabricSpec())
	if err != nil {
		b.Fatal(err)
	}
	r := topology.ComputeRouting(tt.Graph)
	fb := &fluidBench{sim: New(tt.Graph), horizon: 6, done: -1}
	rng := sim.NewRNG(1)
	const rate, mean, shape = 450.0, 5e5, 1.6
	for now := rng.Exp(rate); now < 2; now += rng.Exp(rate) {
		src := tt.Clients[rng.Intn(len(tt.Clients))]
		dst := tt.Servers[rng.Intn(len(tt.Servers))]
		path, err := r.Path(src, dst, uint64(len(fb.paths)))
		if err != nil {
			b.Fatal(err)
		}
		bytes := math.Min(rng.Pareto(mean*(shape-1)/shape, shape), 100<<20)
		fb.at = append(fb.at, now)
		fb.size = append(fb.size, bytes*8)
		fb.paths = append(fb.paths, path)
	}
	return fb
}

// run replays the workload on the reused Simulator; the first run fixes
// the completion count every later run must reproduce.
func (fb *fluidBench) run(b testing.TB) {
	s := fb.sim
	s.Reset()
	for j, path := range fb.paths {
		f := s.AcquireFlow()
		f.ID = int64(j)
		f.Path = path
		f.Size = fb.size[j]
		if err := s.AddFlow(fb.at[j], f); err != nil {
			b.Fatal(err)
		}
	}
	s.Run(fb.horizon)
	if fb.done < 0 {
		fb.done = len(s.Completed)
	}
	if len(s.Completed) != fb.done {
		b.Fatalf("%d flows completed, want %d", len(s.Completed), fb.done)
	}
}

// benchFluid times whole runs of a warm, Reset-reused Simulator; steady
// state is allocation-free (pooled flows, typed reused heaps, incremental
// rate repair), guarded by TestSimulatorSteadyStateAllocationFree.
func benchFluid(b *testing.B, fb *fluidBench) {
	// warm pools and scratch to their high-water marks; the second run's
	// Reset is the first to recycle flows into the free list
	fb.run(b)
	fb.run(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.run(b)
	}
}

// BenchmarkFluid1000Flows runs a full 1000-flow fluid simulation per op on
// the 40-client default fabric.
func BenchmarkFluid1000Flows(b *testing.B) { benchFluid(b, newFluidBench(b)) }

// BenchmarkFluidFabric runs the sim-fluid churn regime per op: ~900 flows
// on the 500-client / 200-server fabric, where each repair replays most of
// its rounds and real rounds drain links to exactly zero.
func BenchmarkFluidFabric(b *testing.B) { benchFluid(b, newFabricBench(b)) }
