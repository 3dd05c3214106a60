package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// topologySpec resolves the spec's topology block onto the three-tier
// builder parameters, enforcing the kind contract: "fig6" admits only the
// bandwidth knobs the paper varies, "custom" admits everything.
func (s *Spec) topologySpec() (topology.ThreeTierSpec, error) {
	tt := topology.DefaultThreeTier()
	t := s.Topology
	kind := t.Kind
	if kind == "" {
		kind = "fig6"
	}
	switch kind {
	case "fig6":
		if t.Racks != 0 || t.ServersPerRack != 0 || t.AggSwitches != 0 || t.Clients != 0 ||
			t.CoreFactor != 0 || t.DCDelay != 0 || t.WANDelay != 0 {
			return tt, fmt.Errorf("scenario %s: topology kind fig6 admits only x and k; use kind custom to reshape the tree", s.Name)
		}
	case "custom":
		if t.Racks != 0 {
			tt.Racks = t.Racks
		}
		if t.ServersPerRack != 0 {
			tt.ServersPerRack = t.ServersPerRack
		}
		if t.AggSwitches != 0 {
			tt.AggSwitches = t.AggSwitches
		}
		if t.Clients != 0 {
			tt.Clients = t.Clients
		}
		if t.CoreFactor != 0 {
			tt.CoreFactor = t.CoreFactor
		}
		if t.DCDelay != 0 {
			tt.DCDelay = t.DCDelay
		}
		if t.WANDelay != 0 {
			tt.WANDelay = t.WANDelay
		}
	default:
		return tt, fmt.Errorf("scenario %s: unknown topology kind %q (want fig6 or custom)", s.Name, kind)
	}
	if t.X != 0 {
		tt.X = t.X
	}
	if t.K != 0 {
		tt.K = t.K
	}
	// the builder's own check, arithmetic only: a bad spec still fails at
	// load time, but nothing here grows with the fabric, and a run builds
	// the graph once (cluster.New or runFluid)
	if err := tt.Validate(); err != nil {
		return tt, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return tt, nil
}

// engineKind resolves the spec's simulation backend.
func (s *Spec) engineKind() (string, error) {
	switch s.Engine {
	case "", EnginePacket:
		return EnginePacket, nil
	case EngineFluid:
		return EngineFluid, nil
	default:
		return "", fmt.Errorf("scenario %s: unknown engine %q (want %s or %s)", s.Name, s.Engine, EnginePacket, EngineFluid)
	}
}

// systemKind resolves the system block's kind.
func (s *Spec) systemKind() (cluster.System, error) {
	switch s.System.Kind {
	case "", "scda":
		return cluster.SCDA, nil
	case "randtcp":
		return cluster.RandTCP, nil
	default:
		return cluster.SCDA, fmt.Errorf("scenario %s: unknown system kind %q (want scda or randtcp)", s.Name, s.System.Kind)
	}
}

// ClusterConfig lowers the spec onto a cluster configuration.
func (s *Spec) ClusterConfig() (cluster.Config, error) {
	sys, err := s.systemKind()
	if err != nil {
		return cluster.Config{}, err
	}
	tt, err := s.topologySpec()
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig(sys)
	cfg.Topology = tt
	cfg.Seed = s.Seed
	if s.System.NNS > 0 {
		cfg.NumNNS = s.System.NNS
	}
	cfg.Replicate = s.System.Replicate
	cfg.Rscale = s.System.Rscale
	cfg.PowerAware = s.System.PowerAware
	cfg.HeterogeneousPower = s.System.PowerAware
	cfg.SJFScheduling = s.System.SJF
	cfg.MigrateInterval = s.System.MigrateInterval
	cfg.ControlDelay = s.System.ControlDelay
	return cfg, nil
}

// horizonOrDefault returns the simulation end time.
func (s *Spec) horizonOrDefault() float64 {
	if s.Horizon > 0 {
		return s.Horizon
	}
	return s.Duration * 3
}
