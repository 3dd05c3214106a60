package topology

import (
	"math"
	"testing"
)

// clampCount bounds a fuzzed count so each build stays at a few thousand
// nodes; the negative end keeps the rejection branches reachable.
func clampCount(v, hi int) int {
	if v < -2 {
		return -2
	}
	if v > hi {
		return hi
	}
	return v
}

// FuzzThreeTierSpec pins the arithmetic check to the builder: Validate
// accepts a spec exactly when BuildThreeTier builds it without an error or
// a panic, and every graph it builds is structurally valid.
func FuzzThreeTierSpec(f *testing.F) {
	add := func(s ThreeTierSpec) {
		f.Add(s.Racks, s.ServersPerRack, s.AggSwitches, s.Clients, s.X, s.K, s.CoreFactor, s.DCDelay, s.WANDelay)
	}
	add(DefaultThreeTier())
	add(fabric500x200())
	// positive factors whose tier capacity underflows to zero
	tiny := DefaultThreeTier()
	tiny.X, tiny.K = 5e-324, 0.5
	add(tiny)
	tiny.K, tiny.CoreFactor = 1, 0.5
	add(tiny)
	// NaN passes every `<= 0` test
	nan := DefaultThreeTier()
	nan.X = math.NaN()
	add(nan)
	setters := []func(*ThreeTierSpec, int){
		func(s *ThreeTierSpec, v int) { s.Racks = v },
		func(s *ThreeTierSpec, v int) { s.ServersPerRack = v },
		func(s *ThreeTierSpec, v int) { s.AggSwitches = v },
		func(s *ThreeTierSpec, v int) { s.Clients = v },
		func(s *ThreeTierSpec, v int) { s.X = float64(v) },
		func(s *ThreeTierSpec, v int) { s.K = float64(v) },
		func(s *ThreeTierSpec, v int) { s.CoreFactor = float64(v) },
		func(s *ThreeTierSpec, v int) { s.DCDelay = float64(v) * 1e-3 },
		func(s *ThreeTierSpec, v int) { s.WANDelay = float64(v) * 1e-3 },
	}
	for _, set := range setters {
		for _, v := range []int{0, -1} {
			s := DefaultThreeTier()
			set(&s, v)
			add(s)
		}
	}
	f.Fuzz(func(t *testing.T, racks, serversPerRack, aggs, clients int, x, k, coreFactor, dcDelay, wanDelay float64) {
		spec := ThreeTierSpec{
			Racks:          clampCount(racks, 64),
			ServersPerRack: clampCount(serversPerRack, 64),
			AggSwitches:    clampCount(aggs, 64),
			Clients:        clampCount(clients, 512),
			X:              x,
			K:              k,
			CoreFactor:     coreFactor,
			DCDelay:        dcDelay,
			WANDelay:       wanDelay,
		}
		verr := spec.Validate()
		tt, berr := buildNoPanic(t, spec)
		if (verr == nil) != (berr == nil) {
			t.Fatalf("Validate and BuildThreeTier disagree on %+v: Validate %v, build %v", spec, verr, berr)
		}
		if berr != nil {
			return
		}
		if err := tt.Graph.Validate(); err != nil {
			t.Fatalf("built graph of %+v invalid: %v", spec, err)
		}
		if len(tt.Servers) != spec.Racks*spec.ServersPerRack || len(tt.Clients) != spec.Clients {
			t.Fatalf("%+v built %d servers and %d clients", spec, len(tt.Servers), len(tt.Clients))
		}
	})
}

// buildNoPanic runs BuildThreeTier and fails the test if it panics.
func buildNoPanic(t *testing.T, spec ThreeTierSpec) (*ThreeTier, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("BuildThreeTier(%+v) panicked: %v", spec, r)
		}
	}()
	return BuildThreeTier(spec)
}
