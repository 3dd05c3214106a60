package flowsim

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// churnRNG is a tiny deterministic generator for the differential tests
// (SplitMix64 core), independent of the benchmark LCG.
type churnRNG uint64

func (r *churnRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *churnRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// float in (0, 1]
func (r *churnRNG) pos() float64 { return float64(r.next()>>11+1) / (1 << 53) }

func randomFlow(r *churnRNG, id int64, nLinks, maxHops int) *Flow {
	h := r.intn(maxHops) + 1
	path := make([]topology.LinkID, h)
	for i := range path {
		path[i] = topology.LinkID(r.intn(nLinks))
	}
	return &Flow{ID: id, Path: path, Size: 1, Weight: 1 + 4*r.pos()}
}

// checkAgainstFullSolve asserts that the incremental allocation is
// bit-for-bit what a fresh full Solve over the same flows computes.
// Solve clobbers Rate in place; since equality is required, a passing
// check leaves the incremental rates intact.
func checkAgainstFullSolve(t testing.TB, in *Incremental, caps []float64, got []float64) {
	t.Helper()
	flows := in.Flows()
	got = got[:0]
	for _, f := range flows {
		got = append(got, f.Rate)
	}
	fresh := NewSolver(len(caps))
	fresh.Solve(flows, caps)
	for i, f := range flows {
		if f.Rate != got[i] {
			t.Fatalf("flow %d: incremental rate %v != full-solve rate %v (diff %g)",
				f.ID, got[i], f.Rate, got[i]-f.Rate)
		}
	}
}

// TestIncrementalDifferentialChurn drives 10k randomized add/remove events
// through the Incremental solver and, after every single event, verifies
// the rates are exactly (bitwise) equal to a fresh full solve over the
// same flow list. This is the equivalence contract the prefix replay is
// built on.
func TestIncrementalDifferentialChurn(t *testing.T) {
	events := 10000
	if testing.Short() {
		events = 1500
	}
	const nLinks = 100
	caps := make([]float64, nLinks)
	rng := churnRNG(0xc0ffee)
	for i := range caps {
		caps[i] = 1e6 * (1 + 9*rng.pos()) // heterogeneous capacities
	}
	in := NewIncremental(caps)
	var active []*Flow
	var got []float64
	nextID := int64(0)
	for ev := 0; ev < events; ev++ {
		// bias toward adds until ~500 flows resident, then balanced
		if len(active) == 0 || (len(active) < 500 && rng.intn(3) > 0) || rng.intn(2) == 0 {
			f := randomFlow(&rng, nextID, nLinks, 5)
			nextID++
			if err := in.Add(f); err != nil {
				t.Fatal(err)
			}
			active = append(active, f)
		} else {
			i := rng.intn(len(active))
			f := active[i]
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			if err := in.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstFullSolve(t, in, caps, got)
	}
	if in.Flows() == nil || len(in.Flows()) == 0 {
		t.Fatal("churn ended with no resident flows; test lost its bite")
	}
}

// TestIncrementalDifferentialFabric checks the repair against full solves
// in the regime of the sim-fluid benchmark and scenarios/fluid-100k.json:
// routed client→server paths on the 500-client / 200-server fabric and
// ~800 resident flows under arrivals and departures, a quarter of them
// same-instant batches. Unit weights drain links to exactly zero, so real
// rounds meet many drained links in the live-link queue, and saturated
// links share many flows, most of them frozen by earlier rounds — what the
// random-link tests, whose fractional weights leave residues, seldom
// reach. Dyadic weights (½, 1, 2) drain exactly too, and their unequal
// rates make the bits depend on the freeze pass visiting tied saturated
// links' flows in position order.
func TestIncrementalDifferentialFabric(t *testing.T) {
	events := 1200
	if testing.Short() {
		events = 300
	}
	tt, err := topology.BuildThreeTier(fabricSpec())
	if err != nil {
		t.Fatal(err)
	}
	routes := topology.ComputeRouting(tt.Graph)
	caps := make([]float64, len(tt.Graph.Links))
	for i, l := range tt.Graph.Links {
		caps[i] = l.Capacity
	}
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"unit-weights", []float64{1}},
		{"dyadic-weights", []float64{0.5, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewIncremental(caps)
			rng := churnRNG(0xfab)
			var active []*Flow
			var got []float64
			nextID := int64(0)
			arrive := func(add []*Flow) []*Flow {
				src := tt.Clients[rng.intn(len(tt.Clients))]
				dst := tt.Servers[rng.intn(len(tt.Servers))]
				path, err := routes.Path(src, dst, uint64(nextID))
				if err != nil {
					t.Fatal(err)
				}
				nextID++
				w := tc.weights[rng.intn(len(tc.weights))]
				return append(add, &Flow{ID: nextID, Path: path, Size: 1, Weight: w})
			}
			depart := func(rm []*Flow) []*Flow {
				i := rng.intn(len(active))
				rm = append(rm, active[i])
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
				return rm
			}
			const resident = 800
			for ev := 0; ev < events; ev++ {
				var add, rm []*Flow
				switch {
				case len(active) < resident && rng.intn(3) > 0:
					// ramp: up to 8 arrivals at one instant
					for k := rng.intn(8); k >= 0; k-- {
						add = arrive(add)
					}
				case rng.intn(4) == 0:
					// a same-instant batch of arrivals and departures
					for k := rng.intn(4); k >= 0; k-- {
						add = arrive(add)
					}
					for k := rng.intn(4); k >= 0 && len(active) > 0; k-- {
						rm = depart(rm)
					}
				case len(active) > resident || rng.intn(2) == 0:
					rm = depart(rm)
				default:
					add = arrive(add)
				}
				if err := in.Apply(add, rm); err != nil {
					t.Fatal(err)
				}
				active = append(active, add...)
				checkAgainstFullSolve(t, in, caps, got)
			}
			if n := len(in.Flows()); n < resident/2 {
				t.Fatalf("churn ended with %d resident flows; the test lost its regime", n)
			}
		})
	}
}

// TestIncrementalBatchApply covers the Simulator's batch pattern:
// simultaneous adds and removes repaired in one Apply.
func TestIncrementalBatchApply(t *testing.T) {
	const nLinks = 40
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1e6
	}
	rng := churnRNG(7)
	in := NewIncremental(caps)
	var active []*Flow
	var got []float64
	nextID := int64(0)
	for ev := 0; ev < 300; ev++ {
		var add, rm []*Flow
		for k := rng.intn(4); k > 0; k-- {
			f := randomFlow(&rng, nextID, nLinks, 4)
			nextID++
			add = append(add, f)
		}
		for k := rng.intn(3); k > 0 && len(active) > 0; k-- {
			i := rng.intn(len(active))
			rm = append(rm, active[i])
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		if len(add) == 0 && len(rm) == 0 {
			continue
		}
		if err := in.Apply(add, rm); err != nil {
			t.Fatal(err)
		}
		active = append(active, add...)
		checkAgainstFullSolve(t, in, caps, got)
	}
}

// TestIncrementalChangedList verifies the changed list is sound and
// complete: every flow whose rate differs from before the event is listed
// with its exact prior rate, added flows are always listed (NaN prior),
// and no unchanged flow appears.
func TestIncrementalChangedList(t *testing.T) {
	const nLinks = 30
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1e6
	}
	rng := churnRNG(42)
	in := NewIncremental(caps)
	var active []*Flow
	prior := map[*Flow]float64{}
	nextID := int64(0)
	for ev := 0; ev < 400; ev++ {
		var f *Flow
		added := false
		if len(active) < 5 || rng.intn(2) == 0 {
			f = randomFlow(&rng, nextID, nLinks, 4)
			nextID++
			added = true
			if err := in.Add(f); err != nil {
				t.Fatal(err)
			}
			active = append(active, f)
		} else {
			i := rng.intn(len(active))
			f = active[i]
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			if err := in.Remove(f); err != nil {
				t.Fatal(err)
			}
			delete(prior, f)
		}
		changed, old := in.Changed()
		if len(changed) != len(old) {
			t.Fatal("changed/old length mismatch")
		}
		inChanged := map[*Flow]bool{}
		for i, cf := range changed {
			inChanged[cf] = true
			if cf == f && added {
				if !math.IsNaN(old[i]) {
					t.Fatalf("added flow's old rate %v, want NaN", old[i])
				}
				continue
			}
			p, ok := prior[cf]
			if !ok {
				t.Fatalf("changed flow %d not active before event", cf.ID)
			}
			if p == cf.Rate {
				t.Fatalf("flow %d listed as changed but rate %v unchanged", cf.ID, p)
			}
			if old[i] != p {
				t.Fatalf("flow %d old rate %v, want %v", cf.ID, old[i], p)
			}
		}
		if added && !inChanged[f] {
			t.Fatal("added flow missing from changed list")
		}
		for _, af := range in.Flows() {
			if !inChanged[af] && prior[af] != af.Rate {
				t.Fatalf("flow %d rate moved %v → %v without being listed",
					af.ID, prior[af], af.Rate)
			}
		}
		for _, af := range in.Flows() {
			prior[af] = af.Rate
		}
	}
}

// TestIncrementalValidation exercises the atomic batch validation:
// duplicate adds, removes of non-members, and overlap between the lists
// must be rejected with no state change.
func TestIncrementalValidation(t *testing.T) {
	caps := []float64{1e6, 1e6}
	in := NewIncremental(caps)
	a := &Flow{ID: 1, Path: []topology.LinkID{0}, Size: 1, Weight: 1}
	b := &Flow{ID: 2, Path: []topology.LinkID{1}, Size: 1, Weight: 1}
	if err := in.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(a); err == nil {
		t.Fatal("double add accepted")
	}
	if err := in.Remove(b); err == nil {
		t.Fatal("remove of non-member accepted")
	}
	if err := in.Apply([]*Flow{b}, []*Flow{b}); err == nil {
		t.Fatal("flow in both lists accepted")
	}
	if err := in.Apply([]*Flow{b, b}, nil); err == nil {
		t.Fatal("duplicate within add list accepted")
	}
	if err := in.Apply(nil, []*Flow{a, a}); err == nil {
		t.Fatal("duplicate within remove list accepted")
	}
	if err := in.Apply([]*Flow{{ID: 3, Path: nil, Weight: 1}}, nil); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := in.Apply([]*Flow{{ID: 4, Path: []topology.LinkID{0}}}, nil); err == nil {
		t.Fatal("non-positive weight accepted")
	}
	// failed batches must leave state untouched: a still in, b still out
	if n := len(in.Flows()); n != 1 || in.Flows()[0] != a {
		t.Fatalf("state disturbed by rejected batches: %d flows", n)
	}
	if err := in.Apply([]*Flow{b}, []*Flow{a}); err != nil {
		t.Fatalf("valid batch rejected after failures: %v", err)
	}
}

// TestIncrementalChurnAllocationFree guards the steady-state hot path: a
// warm Incremental processing one add + one remove per event must not
// allocate.
func TestIncrementalChurnAllocationFree(t *testing.T) {
	c := newChurnState(t, 2000)
	for i := 0; i < 50; i++ { // reach scratch high-water mark
		c.step(t)
	}
	if allocs := testing.AllocsPerRun(200, func() { c.step(t) }); allocs != 0 {
		t.Fatalf("warm incremental churn allocates %v allocs/op, want 0", allocs)
	}
}

// TestSolve10kAllocationFree guards the satellite fix for the stray
// 11 B/op once reported at BenchmarkMaxMinRates/flows=10000: a warm owned
// Solver at that size must be allocation-free.
func TestSolve10kAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-flow solves are slow")
	}
	flows, caps := benchWorkload(10000)
	sv := NewSolver(len(caps))
	sv.Solve(flows, caps)
	if allocs := testing.AllocsPerRun(3, func() { sv.Solve(flows, caps) }); allocs != 0 {
		t.Fatalf("warm Solve at 10k flows allocates %v allocs/op, want 0", allocs)
	}
}

// TestSimulatorSteadyStateAllocationFree guards the tentpole's simulator
// requirement: a warm, Reset-reused Simulator must run a whole workload —
// admissions, rate repairs, completions — without allocating, both the
// 1000-flow run on the default fabric and the sim-fluid churn on the
// 500/200 fabric, whose repairs fill and drain the live-link queue.
func TestSimulatorSteadyStateAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(testing.TB) *fluidBench
	}{
		{"fluid-1000-flows", newFluidBench},
		{"fluid-fabric", newFabricBench},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := tc.mk(t)
			fb.run(t) // warm pools and scratch
			fb.run(t)
			if allocs := testing.AllocsPerRun(3, func() { fb.run(t) }); allocs != 0 {
				t.Fatalf("warm Simulator run allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSimulatorResetReuse verifies a Reset Simulator reproduces a fresh
// one exactly (finish times bitwise equal across reuse).
func TestSimulatorResetReuse(t *testing.T) {
	fb := newFluidBench(t)
	fb.run(t)
	first := make([]float64, len(fb.sim.Completed))
	for i, f := range fb.sim.Completed {
		first[i] = f.Finish
	}
	fb.run(t)
	for i, f := range fb.sim.Completed {
		if f.Finish != first[i] {
			t.Fatalf("completion %d finish %v on reuse, %v fresh", i, f.Finish, first[i])
		}
	}
	if fb.sim.PeakActive() == 0 {
		t.Fatal("peak active not tracked")
	}
}

// FuzzIncrementalSolveEquivalence fuzzes the incremental-vs-full-solve
// equivalence: bytes drive link count, capacities, and a sequence of
// add/remove events with arbitrary paths and weights; after every event
// the incremental rates must be bitwise equal to a fresh full solve.
func FuzzIncrementalSolveEquivalence(f *testing.F) {
	f.Add([]byte{8, 3, 0, 7, 1, 9, 2, 0, 5, 5, 1, 4, 8, 2, 6})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 2, 2, 0})
	f.Add([]byte{16, 200, 3, 3, 3, 9, 9, 1, 0, 255, 7, 7, 2, 128, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nLinks := int(data[0])%24 + 1
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = 1e3 * float64(1+int(data[1+i%2])%9)
		}
		in := NewIncremental(caps)
		var active []*Flow
		var got []float64
		nextID := int64(0)
		pos := 2
		take := func() int {
			if pos >= len(data) {
				pos = 2 // wrap, keeps short inputs useful
			}
			v := int(data[pos])
			pos++
			return v
		}
		for ev := 0; ev < 60 && ev < len(data); ev++ {
			op := take()
			if len(active) == 0 || op%3 != 0 {
				hops := op%4 + 1
				path := make([]topology.LinkID, hops)
				for i := range path {
					path[i] = topology.LinkID(take() % nLinks)
				}
				w := float64(take()%16+1) / 4
				fl := &Flow{ID: nextID, Path: path, Size: 1, Weight: w}
				nextID++
				if err := in.Add(fl); err != nil {
					t.Fatal(err)
				}
				active = append(active, fl)
			} else {
				i := take() % len(active)
				fl := active[i]
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
				if err := in.Remove(fl); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstFullSolve(t, in, caps, got)
		}
	})
}
