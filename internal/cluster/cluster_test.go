package cluster

import (
	"math"
	"testing"

	"repro/internal/content"
	"repro/internal/power"
	"repro/internal/ratealloc"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// smallConfig shrinks the fabric so tests run fast.
func smallConfig(sys System) Config {
	cfg := DefaultConfig(sys)
	cfg.Topology.X = 100e6
	cfg.Topology.Clients = 10
	cfg.Topology.Racks = 2
	cfg.Topology.ServersPerRack = 3
	cfg.Topology.AggSwitches = 2
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSCDAWiring: SCDA builds the allocation plane and the content-aware
// picker and no random picker.
func TestSCDAWiring(t *testing.T) {
	c := mustNew(t, smallConfig(SCDA))
	if c.Ctrl == nil || c.Hier == nil || c.Picker == nil || c.Random != nil {
		t.Fatal("SCDA planes not wired")
	}
}

// TestRandTCPWiring: the baseline builds the random picker and none of
// SCDA's planes.
func TestRandTCPWiring(t *testing.T) {
	c := mustNew(t, smallConfig(RandTCP))
	if c.Ctrl != nil || c.Hier != nil || c.Picker != nil || c.Random == nil {
		t.Fatal("RandTCP built SCDA planes or no random picker")
	}
}

func TestNumNNSReachesFES(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.NumNNS = 5
	if n := mustNew(t, cfg).FES.NumNNS(); n != 5 {
		t.Fatalf("FES has %d name nodes, want 5", n)
	}
}

func TestSCDAWriteReadRoundTrip(t *testing.T) {
	c := mustNew(t, smallConfig(SCDA))
	err := c.SubmitWrite(workload.Request{
		At: 0, Client: 0, Content: "hello", Size: 500_000,
		Op: workload.Write, Class: content.SemiInteractive,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(30)
	if c.Metrics.Completed != 1 {
		t.Fatalf("completed = %d", c.Metrics.Completed)
	}
	// the content is stored and readable
	if err := c.SubmitRead(workload.Request{At: 0, Client: 3, Content: "hello", Op: workload.Read}); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(60)
	if c.Metrics.Completed != 2 {
		t.Fatalf("completed after read = %d", c.Metrics.Completed)
	}
	for _, r := range c.Metrics.Records {
		if r.FCT <= 0 {
			t.Fatalf("bad FCT %v", r.FCT)
		}
	}
}

func TestRandTCPWriteReadRoundTrip(t *testing.T) {
	c := mustNew(t, smallConfig(RandTCP))
	if err := c.SubmitWrite(workload.Request{Client: 1, Content: "x", Size: 300_000}); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(60)
	if c.Metrics.Completed != 1 {
		t.Fatal("write did not complete")
	}
	if err := c.SubmitRead(workload.Request{Client: 2, Content: "x", Op: workload.Read}); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(120)
	if c.Metrics.Completed != 2 {
		t.Fatal("read did not complete")
	}
}

func TestReadUnknownContentFails(t *testing.T) {
	c := mustNew(t, smallConfig(SCDA))
	if err := c.SubmitRead(workload.Request{Client: 0, Content: "ghost", Op: workload.Read}); err == nil {
		t.Fatal("read of unknown content accepted")
	}
}

func TestBadClientRejected(t *testing.T) {
	c := mustNew(t, smallConfig(SCDA))
	if err := c.SubmitWrite(workload.Request{Client: 99, Content: "x", Size: 100}); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	if err := c.SubmitRead(workload.Request{Client: -1, Content: "x", Op: workload.Read}); err == nil {
		t.Fatal("negative client accepted")
	}
}

func TestReplicationCreatesSecondCopy(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.Replicate = true
	c := mustNew(t, cfg)
	if err := c.SubmitWrite(workload.Request{Client: 0, Content: "repl", Size: 400_000, Class: content.SemiInteractive}); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(60)
	meta, err := c.FES.Lookup("repl")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(meta.Blocks[0].Replicas); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	// internal replication flow recorded as internal
	internal := 0
	for _, r := range c.Metrics.Records {
		if r.Internal {
			internal++
		}
	}
	if internal != 1 {
		t.Fatalf("internal records = %d", internal)
	}
	// internal traffic is excluded from the client CDF
	if c.Metrics.FCTCDF().N() != 1 {
		t.Fatalf("client CDF has %d samples", c.Metrics.FCTCDF().N())
	}
}

func TestWorkloadRunBothSystems(t *testing.T) {
	spec := workload.DefaultDCSpec()
	spec.ArrivalRate = 20
	spec.Clients = 10
	for _, sys := range []System{SCDA, RandTCP} {
		cfg := smallConfig(sys)
		c := mustNew(t, cfg)
		reqs := spec.Generate(sim.NewRNG(cfg.Seed), 5)
		m := c.RunWorkload(reqs, 60)
		if m.Started == 0 {
			t.Fatalf("%v: no flows started", sys)
		}
		frac := float64(m.Completed) / float64(m.Started)
		if frac < 0.9 {
			t.Fatalf("%v: only %v of flows completed", sys, frac)
		}
		if pts := m.AvgInstThroughput(); len(pts) == 0 {
			t.Fatalf("%v: no throughput series", sys)
		}
		if pts := m.AFCTBySize(500e3); len(pts) == 0 {
			t.Fatalf("%v: no AFCT curve", sys)
		}
	}
}

func TestSCDABeatsRandTCPOnFCT(t *testing.T) {
	// the paper's headline: SCDA achieves substantially lower FCT than
	// random placement + TCP under the same workload
	spec := workload.DefaultDCSpec()
	spec.ArrivalRate = 30
	spec.Clients = 10
	var mean [2]float64
	for i, sys := range []System{SCDA, RandTCP} {
		cfg := smallConfig(sys)
		c := mustNew(t, cfg)
		reqs := spec.Generate(sim.NewRNG(7), 8)
		m := c.RunWorkload(reqs, 120)
		if m.Completed < len(reqs)/2 {
			t.Fatalf("%v completed %d of %d", sys, m.Completed, len(reqs))
		}
		mean[i] = m.MeanFCT()
	}
	if !(mean[0] < mean[1]) {
		t.Fatalf("SCDA mean FCT %v not below RandTCP %v", mean[0], mean[1])
	}
}

func TestSLAMitigationRestoresCapacity(t *testing.T) {
	cfg := smallConfig(SCDA)
	c := mustNew(t, cfg)
	c.MitigateViolations = true
	// oversubscribe one server uplink with reservations to force a
	// violation
	srv := c.TT.Servers[0]
	up := c.TT.UplinkOf[srv]
	for i := 0; i < 3; i++ {
		if err := c.Ctrl.Register(&ratealloc.Flow{
			ID:      ratealloc.FlowID(9000 + i),
			Path:    []topology.LinkID{up},
			MinRate: 0.5 * cfg.Topology.X,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.RunUntil(1)
	if c.Metrics.Violations == 0 {
		t.Fatal("no violation detected")
	}
	// mitigation bumped the link capacity by 50%
	if got := c.Ctrl.Link(up).Capacity; math.Abs(got-1.5*cfg.Topology.X) > 1 {
		t.Fatalf("capacity after mitigation = %v, want %v", got, 1.5*cfg.Topology.X)
	}
}

func TestControlDelayDefersTransfer(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.ControlDelay = 0.5
	c := mustNew(t, cfg)
	c.SubmitWrite(workload.Request{Client: 0, Content: "slow", Size: 10_000})
	c.Sim.RunUntil(0.4)
	if c.Metrics.Started != 0 {
		t.Fatal("transfer started before control delay elapsed")
	}
	c.Sim.RunUntil(30)
	if c.Metrics.Completed != 1 {
		t.Fatal("transfer never completed")
	}
}

func TestDiskFullFailsPlacement(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.DiskBytes = 1000
	c := mustNew(t, cfg)
	if err := c.SubmitWrite(workload.Request{Client: 0, Content: "big", Size: 10_000}); err == nil {
		t.Fatal("placement on full cluster accepted")
	}
}

func TestInvalidConfigs(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.NumNNS = 0
	if _, err := New(cfg); err != nil {
		// expected
	} else {
		t.Fatal("0 NNS accepted")
	}
	cfg = smallConfig(SCDA)
	cfg.Topology.Racks = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad topology accepted")
	}
}

func TestMetricsThroughputAccounting(t *testing.T) {
	c := mustNew(t, smallConfig(SCDA))
	c.SubmitWrite(workload.Request{Client: 0, Content: "t", Size: 2_000_000})
	c.Sim.RunUntil(60)
	pts := c.Metrics.AvgInstThroughput()
	total := 0.0
	for _, p := range pts {
		total += p.Y
	}
	if total <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestHeterogeneousPowerProfiles(t *testing.T) {
	cfg := smallConfig(SCDA)
	cfg.HeterogeneousPower = true
	cfg.PowerAware = true
	c := mustNew(t, cfg)
	peaks := map[float64]bool{}
	c.Power.Each(func(s *power.Server) { peaks[s.Profile.PeakWatts] = true })
	if len(peaks) < 2 {
		t.Fatal("power profiles not heterogeneous")
	}
	// write still succeeds under power-aware selection
	if err := c.SubmitWrite(workload.Request{Client: 0, Content: "p", Size: 100_000}); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(30)
	if c.Metrics.Completed != 1 {
		t.Fatal("power-aware write failed")
	}
}
