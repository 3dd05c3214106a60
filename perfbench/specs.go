package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// The generators below turn the benchmark's seed into scenario spec
// bytes. The packet shapes follow the shipped specs under scenarios/ at
// shortened durations, so one op takes tens of milliseconds instead of
// seconds and a timed window holds a hundred or more of them.

// params marshals generator parameters; encoding/json sorts the keys, so
// the bytes depend on the values alone.
func params(kv map[string]any) json.RawMessage {
	b, err := json.Marshal(kv)
	if err != nil {
		panic(err) // only numbers and strings go in
	}
	return b
}

// specSeed draws a spec seed that JSON round-trips exactly.
func specSeed(rng *sim.RNG) uint64 { return rng.Uint64() >> 12 }

func fig6() scenario.TopologySpec { return scenario.TopologySpec{Kind: "fig6", X: 5e7, K: 3} }

// fabric is the 500-client / 200-server custom fabric of
// scenarios/fluid-100k.json.
func fabric() scenario.TopologySpec {
	return scenario.TopologySpec{Kind: "custom", Clients: 500, Racks: 25, ServersPerRack: 8, AggSwitches: 5, X: 5e6, K: 5, CoreFactor: 40}
}

func phase(gen string, start float64, kv map[string]any) scenario.PhaseSpec {
	return scenario.PhaseSpec{Generator: gen, Start: start, Params: params(kv)}
}

// packetShapes is the number of packet shapes packetSpec draws from.
const packetShapes = 6

// packetSpec generates one packet-engine spec of the given shape:
//
//	0 the dc baseline (paper-fig6), which keeps the event heap shallow;
//	1 the failure storm, four block servers failing one per rack;
//	2 the flash crowd, read-heavy, exercising replica selection;
//	3 diurnal plus mixed load with replication (diurnal-cdn);
//	4 video plus zipfchurn under SJF (mixed-sla);
//	5 power-aware mixed load at a seeded rscale (power-save).
func packetSpec(shape int, name string, rng *sim.RNG) *scenario.Spec {
	s := &scenario.Spec{Version: scenario.Version, Name: name, Seed: specSeed(rng), Topology: fig6(), System: scenario.SystemSpec{Kind: "scda"}}
	all := []string{scenario.OutThroughput, scenario.OutFCTCDF, scenario.OutAFCT}
	two := all[:2]
	switch shape {
	case 0:
		s.Duration = 40
		s.Workload = []scenario.PhaseSpec{phase("dc", 0, map[string]any{"ArrivalRate": 6, "CapBytes": 2 << 20})}
		s.Outputs = scenario.OutputSpec{Series: all, AFCTBinBytes: 500000}
	case 1:
		s.Duration = 28
		s.System.Replicate = true
		s.Workload = []scenario.PhaseSpec{phase("dc", 0, map[string]any{"ArrivalRate": 6, "CapBytes": 2 << 20})}
		for r := 0; r < 4; r++ {
			s.Faults = append(s.Faults, scenario.FaultSpec{At: s.Duration * (0.3 + 0.07*float64(r)), Kind: scenario.FailServer, Server: 5*r + rng.Intn(5)})
		}
		s.Outputs = scenario.OutputSpec{Series: two}
	case 2:
		s.Duration, s.Horizon = 0.9, 1.5
		s.System.Replicate = true
		s.Workload = []scenario.PhaseSpec{phase("flashcrowd", 0, map[string]any{"BackgroundRate": 20, "HotSizeBytes": 256 << 10,
			"BurstStart": 0.33, "BurstDuration": 0.33, "BurstRate": 120, "MeanSizeBytes": 2.5e5, "SigmaLog": 0.5, "CapBytes": 2 << 20})}
		s.Outputs = scenario.OutputSpec{Series: all}
	case 3:
		s.Duration, s.Horizon = 0.5, 1
		s.System.Replicate = true
		s.Workload = []scenario.PhaseSpec{
			phase("diurnal", 0, map[string]any{"BaseRate": 48, "Amplitude": 0.8, "Period": s.Duration, "MeanSizeBytes": 2.5e5, "SigmaLog": 0.5, "CapBytes": 2 << 20}),
			phase("mixed", 0, map[string]any{"WriteRate": 8, "ReadsPerWrite": 3, "MeanSizeBytes": 5e5, "SigmaLog": 0.5, "CapBytes": 4 << 20}),
		}
		s.Outputs = scenario.OutputSpec{Series: two}
	case 4:
		s.Duration, s.Horizon = 0.35, 0.7
		s.System.SJF = true
		s.Workload = []scenario.PhaseSpec{
			phase("video", 0, map[string]any{"ArrivalRate": 12, "MeanSizeBytes": 2e6, "SigmaLog": 0.5, "CapBytes": 8 << 20}),
			phase("zipfchurn", 0.05, map[string]any{"Catalog": 60, "ReadRate": 80, "ChurnInterval": 0.25, "MeanSizeBytes": 5e5, "SigmaLog": 0.5, "CapBytes": 4 << 20}),
		}
		s.Outputs = scenario.OutputSpec{Series: all}
	case 5:
		s.Duration, s.Horizon = 0.7, 1.4
		s.System.Replicate, s.System.PowerAware, s.System.Rscale = true, true, 1e7
		s.Workload = []scenario.PhaseSpec{phase("mixed", 0, map[string]any{"WriteRate": 12, "ReadsPerWrite": 4, "MeanSizeBytes": 5e5, "SigmaLog": 0.5, "CapBytes": 4 << 20})}
		s.Outputs = scenario.OutputSpec{Series: two}
	default:
		panic(fmt.Sprintf("packet shape %d", shape))
	}
	return s
}

// fluidSpec generates one fluid-engine spec on the custom fabric: shape 0
// is churn below capacity, where flows complete; shape 1 is an arrival
// ramp of long flows with no completions, which leaves every flow
// resident.
func fluidSpec(shape int, name string, rng *sim.RNG) *scenario.Spec {
	s := &scenario.Spec{Version: scenario.Version, Name: name, Seed: specSeed(rng), Engine: scenario.EngineFluid, Topology: fabric()}
	s.Outputs = scenario.OutputSpec{Series: []string{scenario.OutThroughput, scenario.OutFCTCDF}}
	switch shape {
	case 0:
		s.Duration = 2
		s.Workload = []scenario.PhaseSpec{phase("pareto", 0, map[string]any{"ArrivalRate": 450, "Clients": 500, "MeanSizeBytes": 5e5})}
	case 1:
		s.Duration, s.Horizon = 0.75, 1.1
		s.Workload = []scenario.PhaseSpec{phase("pareto", 0, map[string]any{"ArrivalRate": 1200, "Clients": 500, "MeanSizeBytes": 5e7})}
	default:
		panic(fmt.Sprintf("fluid shape %d", shape))
	}
	return s
}

// servedSpec generates one small spec for the service: a packet dc run on
// fig6, or (custom) a short fluid churn on the large fabric, whose
// validation builds a 700-host topology.
func servedSpec(custom bool, name string, rng *sim.RNG) *scenario.Spec {
	if custom {
		s := fluidSpec(0, name, rng)
		s.Duration = 0.5
		return s
	}
	s := packetSpec(0, name, rng)
	s.Duration = 4
	return s
}

// shipped lists the job and sweep specs under scenarios/ (the search spec
// aside, since search is not measured) by what shapes a client session on
// them: the topology kind, whether the spec is a sweep, and its output
// series, which set how many CSVs the client fetches.
var shipped = []struct {
	name          string
	custom, sweep bool
	series        []string
}{
	{"diurnal-cdn", false, false, []string{scenario.OutThroughput, scenario.OutFCTCDF}},
	{"failure-storm", false, false, []string{scenario.OutThroughput, scenario.OutFCTCDF}},
	{"flash-crowd", false, false, []string{scenario.OutThroughput, scenario.OutFCTCDF, scenario.OutAFCT}},
	{"fluid-100k", true, false, []string{scenario.OutThroughput}},
	{"mixed-sla", false, false, []string{scenario.OutThroughput, scenario.OutFCTCDF, scenario.OutAFCT}},
	{"paper-fig6", false, false, []string{scenario.OutThroughput, scenario.OutFCTCDF, scenario.OutAFCT}},
	{"power-save", false, true, []string{scenario.OutThroughput, scenario.OutFCTCDF}},
}

// sweepSpec generates a fig6 sweep over topology.k for job groups.
func sweepSpec(name string, rng *sim.RNG) *scenario.Spec {
	s := servedSpec(false, name, rng)
	s.Sweep = &scenario.SweepSpec{Parameter: "topology.k", Values: []float64{2, 3, 4}}
	return s
}

// encode marshals a generated spec to the bytes the program receives.
func encode(s *scenario.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}
