package flowsim

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// outcome is what a call made by callWithin returned or panicked with.
type outcome struct {
	err    error
	panics any
}

// callWithin runs fn on its own goroutine and fails the test if it has not
// returned within d, so an input that hangs the simulator fails instead of
// stalling the suite (the stuck goroutine spins until the binary exits).
func callWithin(t testing.TB, d time.Duration, fn func() error) outcome {
	t.Helper()
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panics = recover()
			done <- o
		}()
		o.err = fn()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case o := <-done:
		return o
	case <-timer.C:
		t.Fatalf("call did not return within %v", d)
		return outcome{}
	}
}

// inputGraph is a three-link chain: six directed links, IDs 0–5.
func inputGraph() *topology.Graph {
	g, _ := chain(10e6, 5e6, 20e6)
	return g
}

// flowInputs lists single-flow inputs at the edge of what flowsim takes.
// An apply row goes to Incremental.Apply; any other row goes to
// Simulator.AddFlow and, when accepted, Run(10) and Run(math.MaxFloat64).
// field is the word the error must contain; an empty field marks an input
// that must be accepted and run.
var flowInputs = []struct {
	name             string
	apply            bool
	at, size, weight float64
	path             []topology.LinkID
	field            string
}{
	{"apply NaN weight", true, 0, 1e6, math.NaN(), []topology.LinkID{0}, "weight"},
	{"apply +Inf weight", true, 0, 1e6, math.Inf(1), []topology.LinkID{0}, "weight"},
	{"apply link past the capacities", true, 0, 1e6, 1, []topology.LinkID{0, 6}, "link"},
	{"apply negative link", true, 0, 1e6, 1, []topology.LinkID{-1}, "link"},
	{"add NaN arrival time", false, math.NaN(), 1e6, 1, []topology.LinkID{0}, "arrival"},
	{"add NaN size", false, 0, math.NaN(), 1, []topology.LinkID{0}, "size"},
	{"add NaN weight", false, 0, 1e6, math.NaN(), []topology.LinkID{0}, "weight"},
	{"add +Inf weight", false, 0, 1e6, math.Inf(1), []topology.LinkID{0}, "weight"},
	{"add link past the capacities", false, 0, 1e6, 1, []topology.LinkID{2, 6}, "link"},
	{"add +Inf size", false, 0, math.Inf(1), 1, []topology.LinkID{0, 2}, ""},
	{"add +Inf arrival time", false, math.Inf(1), 1e6, 1, []topology.LinkID{0}, ""},
}

// TestFlowInputs pins the rejection of flow inputs that used to hang
// flowsim (a NaN weight, arrival time or size) or crash it (a path link
// outside the capacity slice), or that produced NaN rates (an infinite
// weight). Each call runs under a deadline, so a regression fails rather
// than hangs. Infinite sizes and arrival times stay valid: the flow never
// finishes, or never arrives.
func TestFlowInputs(t *testing.T) {
	g := inputGraph()
	for _, tc := range flowInputs {
		t.Run(tc.name, func(t *testing.T) {
			f := &Flow{ID: 7, Path: tc.path, Size: tc.size, Weight: tc.weight}
			var s *Simulator
			var now10 float64
			o := callWithin(t, 5*time.Second, func() error {
				if tc.apply {
					return NewIncremental(caps(g)).Apply([]*Flow{f}, nil)
				}
				s = New(g)
				if err := s.AddFlow(tc.at, f); err != nil {
					return err
				}
				s.Run(10)
				now10 = s.Now()
				s.Run(math.MaxFloat64) // rate × elapsed time overflows
				return nil
			})
			if o.panics != nil {
				t.Fatalf("panicked: %v", o.panics)
			}
			if tc.field == "" {
				if o.err != nil {
					t.Fatalf("rejected: %v", o.err)
				}
				if now10 != 10 || len(s.Completed) != 0 || math.IsNaN(f.Size) {
					t.Fatalf("Run(10) left the clock at %v; %d completed, size %v; want 10, none, a number",
						now10, len(s.Completed), f.Size)
				}
				return
			}
			if o.err == nil {
				t.Fatalf("accepted; want an error naming the %s", tc.field)
			}
			if msg := o.err.Error(); !strings.Contains(msg, "flow 7") || !strings.Contains(msg, tc.field) {
				t.Fatalf("error %q does not name flow 7 and its %s", msg, tc.field)
			}
		})
	}
}

// TestSimulatorRunInfiniteHorizon: Run(+Inf) returns once nothing is
// pending, with the clock at the last completion and no flow left behind.
func TestSimulatorRunInfiniteHorizon(t *testing.T) {
	g, path := chain(10e6)
	s := New(g)
	for i := 0; i < 3; i++ {
		if err := s.AddFlow(float64(i), &Flow{ID: int64(i), Path: path, Size: 10e6}); err != nil {
			t.Fatal(err)
		}
	}
	o := callWithin(t, 5*time.Second, func() error { s.Run(math.Inf(1)); return nil })
	if o.panics != nil {
		t.Fatalf("Run(+Inf) panicked: %v", o.panics)
	}
	if len(s.Completed) != 3 || s.Active() != 0 {
		t.Fatalf("%d completed, %d active; want 3 and 0", len(s.Completed), s.Active())
	}
	if last := s.Completed[2].Finish; s.Now() != last {
		t.Fatalf("clock at %v, want the last completion %v", s.Now(), last)
	}
	s.Run(math.Inf(1)) // nothing pending: a no-op
	if s.Now() != s.Completed[2].Finish {
		t.Fatalf("idle Run(+Inf) moved the clock to %v", s.Now())
	}
}

// TestSimulatorRunNaNHorizonPanics: a NaN horizon can never be passed, so
// Run refuses it instead of looping.
func TestSimulatorRunNaNHorizonPanics(t *testing.T) {
	g, path := chain(10e6)
	s := New(g)
	if err := s.AddFlow(0, &Flow{ID: 1, Path: path, Size: 10e6}); err != nil {
		t.Fatal(err)
	}
	o := callWithin(t, 5*time.Second, func() error { s.Run(math.NaN()); return nil })
	if msg, _ := o.panics.(string); !strings.Contains(msg, "NaN horizon") {
		t.Fatalf("Run(NaN) panicked with %v, want a NaN horizon message", o.panics)
	}
}

// fuzzFlowBytes is the size of one encoded flow in FuzzSimulatorInputs:
// arrival time, size and weight as raw float64 bits, a hop count byte,
// and three int16 link IDs, all little-endian.
const fuzzFlowBytes = 8*3 + 1 + 2*3

func encodeFuzzFlow(at, size, weight float64, path []topology.LinkID) []byte {
	b := make([]byte, fuzzFlowBytes)
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(at))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(size))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(weight))
	b[24] = byte(len(path) - 1)
	for i, l := range path {
		binary.LittleEndian.PutUint16(b[25+2*i:], uint16(int16(l)))
	}
	return b
}

// FuzzSimulatorInputs feeds up to eight flows built from raw float64 bit
// patterns and raw link IDs through Simulator.AddFlow, then runs to a
// finite or infinite horizon. AddFlow must return (an error or not)
// without panicking, Run must return without panicking, and a finite
// horizon must leave the clock at max(horizon, 0).
func FuzzSimulatorInputs(f *testing.F) {
	for _, tc := range flowInputs {
		f.Add(math.Float64bits(10), encodeFuzzFlow(tc.at, tc.size, tc.weight, tc.path))
	}
	two := append(encodeFuzzFlow(0, 8e6, 1, []topology.LinkID{0, 2, 4}),
		encodeFuzzFlow(0.5, 4e6, 2, []topology.LinkID{2})...)
	f.Add(math.Float64bits(10), two)
	f.Add(math.Float64bits(math.Inf(1)), two)
	g := inputGraph()
	f.Fuzz(func(t *testing.T, horizonBits uint64, data []byte) {
		horizon := math.Float64frombits(horizonBits)
		if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
			horizon = math.Inf(1)
		}
		s := New(g)
		o := callWithin(t, 10*time.Second, func() error {
			for i := 0; i < 8 && len(data) >= fuzzFlowBytes; i++ {
				rec := data[:fuzzFlowBytes]
				data = data[fuzzFlowBytes:]
				fl := &Flow{
					ID:     int64(i),
					Size:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
					Weight: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
				}
				for h := 0; h <= int(rec[24])%3; h++ {
					fl.Path = append(fl.Path, topology.LinkID(int16(binary.LittleEndian.Uint16(rec[25+2*h:]))))
				}
				_ = s.AddFlow(math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])), fl)
			}
			s.Run(horizon)
			return nil
		})
		if o.panics != nil {
			t.Fatalf("panicked: %v", o.panics)
		}
		if !math.IsInf(horizon, 1) {
			if want := math.Max(horizon, 0); s.Now() != want {
				t.Fatalf("Run(%v) left the clock at %v, want %v", horizon, s.Now(), want)
			}
		}
	})
}
