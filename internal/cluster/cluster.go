// Package cluster assembles the full SCDA system — topology, packet
// network, RM/RA rate allocation, FES/NNS/BS file system, content-aware
// server selection and the explicit-rate transport — and the RandTCP
// baseline (random server selection + TCP Reno) the paper compares
// against, behind one API that the experiment harness drives with
// generated workloads.
//
// The request-serving sequences follow section VIII: an external write
// hashes through the FES to the owning NNS, asks the RA tree for the best
// block server, transfers at the allocated rate, then optionally issues
// the internal replication write of VIII-B to a class-selected second
// server; an external read picks the replica with the best up-link rate.
// Control-plane exchanges (FES/NNS/RA messages) are modelled as a fixed
// configurable latency rather than in-band packets — the paper keeps
// control flows logical (fig. 1's arrows) and consolidates RMs/RAs "in a
// few powerful servers close to each other to minimize communication
// overheads".
package cluster

import (
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/dfs"
	"repro/internal/hostres"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/ratealloc"
	"repro/internal/scdatp"
	"repro/internal/scheduler"
	"repro/internal/selection"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// System selects the architecture under test.
type System int

const (
	// SCDA is the paper's system: RM/RA explicit rates + content-aware
	// selection + rate-paced transport.
	SCDA System = iota
	// RandTCP is the baseline: uniform random server selection and TCP
	// Reno, the behaviour the paper attributes to VL2/Hedera-class
	// architectures.
	RandTCP
)

// String names the system for logs and summaries.
func (s System) String() string {
	if s == SCDA {
		return "SCDA"
	}
	return "RandTCP"
}

// Config assembles a cluster.
type Config struct {
	System   System
	Topology topology.ThreeTierSpec

	// NumNNS is the name-node count (1 reproduces the GFS/HDFS
	// single-name-node bottleneck).
	NumNNS int
	// BlockSize for content chunking.
	BlockSize int64
	// DiskBytes per block server.
	DiskBytes int64

	// Alloc tunes the RM/RA plane (SCDA only).
	Alloc ratealloc.Params
	// SCDATransport tunes the explicit-rate transport (SCDA only).
	SCDATransport scdatp.Config
	// TCP tunes the Reno baseline transport (RandTCP only).
	TCP tcp.Config
	// Net tunes queues and scheduling.
	Net netsim.Config

	// Replicate issues the internal VIII-B replication write after each
	// external write completes.
	Replicate bool
	// Rscale is the passive-content scale-down threshold (VII-C);
	// 0 disables dormancy logic.
	Rscale float64
	// PowerAware enables the R̂/P selection metric (VII-D); requires
	// PowerProfiles or defaults are used.
	PowerAware bool
	// HeterogeneousPower draws varied per-server power profiles.
	HeterogeneousPower bool

	// ControlDelay models the request path (UCL→FES→NNS→RA→BS) before
	// data flows; applied identically to both systems.
	ControlDelay float64

	// MigrateInterval, when positive, runs the VII-C cold-content
	// migration pass every that many seconds (SCDA with Rscale > 0 only).
	MigrateInterval float64

	// SJFScheduling attaches the implicit shortest-job-first policy of
	// section IV-A to every SCDA flow: priority weights are adapted each
	// control interval to favour flows with fewer bytes remaining.
	SJFScheduling bool

	// ServerCPURate / ServerDiskRate model per-server service capacity
	// (the R_other multi-resource term of section VI-A) in bits/sec;
	// 0 leaves servers unconstrained. ServerBackgroundMax draws each
	// server's background-computation fraction uniformly from
	// [0, ServerBackgroundMax).
	ServerCPURate       float64
	ServerDiskRate      float64
	ServerBackgroundMax float64

	// ThptBinSeconds sets the throughput time-series bin (default 1 s).
	ThptBinSeconds float64

	Seed uint64
}

// DefaultConfig returns the paper's video-trace setup on the fig. 6
// topology.
func DefaultConfig(system System) Config {
	return Config{
		System:         system,
		Topology:       topology.DefaultThreeTier(),
		NumNNS:         3,
		BlockSize:      64 << 20, // GFS-style chunks; most contents are one block
		DiskBytes:      1 << 40,
		Alloc:          ratealloc.DefaultParams(),
		SCDATransport:  scdatp.DefaultConfig(),
		TCP:            tcp.DefaultConfig(),
		Net:            netsim.DefaultConfig(),
		Replicate:      false,
		ThptBinSeconds: 1,
		Seed:           1,
	}
}

// FlowRecord is one completed transfer.
type FlowRecord struct {
	Size     int64
	Start    float64
	FCT      float64
	Op       workload.Op
	Internal bool // replication traffic, excluded from client-facing stats
}

// Metrics aggregates an experiment run.
type Metrics struct {
	Records []FlowRecord
	// ThptBins accumulates delivered payload bits per time bin across all
	// external flows; ActiveFlows counts distinct flows seen per bin. The
	// ratio reproduces the paper's "average instantaneous throughput".
	ThptBins    *stats.TimeBins
	ActiveFlows []int
	// Started / Completed count external transfers.
	Started   int
	Completed int
	// Violations counts SLA detections (SCDA only).
	Violations int64
	// Drops is the total packet-drop count.
	Drops int64
	// LostBlocks counts blocks whose only replica was on a failed server;
	// ReReplicated counts blocks recovered onto new servers;
	// UnrecoveredBlocks had survivors but no placement target.
	LostBlocks        int64
	ReReplicated      int64
	UnrecoveredBlocks int64
	// Migrations counts cold-content replica moves (section VII-C).
	Migrations int64
}

// AvgInstThroughput returns the paper's fig. 7/10/17 series: per bin,
// delivered bits divided by bin width and by the number of active flows,
// in KB/sec.
func (m *Metrics) AvgInstThroughput() []stats.Point {
	sums := m.ThptBins.Sums()
	out := make([]stats.Point, len(sums))
	for i, p := range sums {
		n := 1
		if i < len(m.ActiveFlows) && m.ActiveFlows[i] > 0 {
			n = m.ActiveFlows[i]
		}
		out[i] = stats.Point{X: p.X, Y: p.Y / m.ThptBins.Width() / float64(n) / 8 / 1000}
	}
	return out
}

// FCTCDF returns the external-flow completion-time CDF.
func (m *Metrics) FCTCDF() *stats.CDF {
	var c stats.CDF
	for _, r := range m.Records {
		if !r.Internal {
			c.Add(r.FCT)
		}
	}
	return &c
}

// AFCTBySize bins external-flow FCT by content size (bin width in bytes).
func (m *Metrics) AFCTBySize(binBytes float64) []stats.Point {
	sb := stats.NewSizeBins(binBytes)
	for _, r := range m.Records {
		if !r.Internal {
			sb.Add(float64(r.Size), r.FCT)
		}
	}
	return sb.Curve()
}

// Cluster is a fully wired simulated datacenter.
type Cluster struct {
	Cfg   Config
	Sim   *sim.Simulator
	Net   *netsim.Network
	TT    *topology.ThreeTier
	FES   *dfs.FES
	Power *power.Model
	// Classifier learns content classes from observed accesses
	// (section II-B).
	Classifier *content.Classifier
	// Hosts models per-server CPU/disk service capacity (nil when
	// unconstrained).
	Hosts  *hostres.Model
	Ctrl   *ratealloc.Controller // nil for RandTCP
	Sched  *scheduler.Scheduler  // nil unless SJFScheduling
	Hier   *ratealloc.Hierarchy  // nil for RandTCP
	Picker *selection.Picker     // nil for RandTCP
	Random *selection.Random     // nil for SCDA

	Metrics Metrics

	rng     *sim.RNG
	ids     transport.FlowIDSource
	mux     *transport.Mux
	lastBin map[netsim.FlowID]int
	failed  map[topology.NodeID]bool

	// OnViolation, when set, receives SLA violations (SCDA only).
	OnViolation func(ratealloc.Violation)
	// MitigateViolations activates spare capacity on a violated link
	// (+50%), the "reserve, backup or recovery links" response of IV-A.
	MitigateViolations bool
	mitigated          map[topology.LinkID]bool
}

// New builds and wires a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumNNS <= 0 {
		return nil, fmt.Errorf("cluster: NumNNS = %d", cfg.NumNNS)
	}
	if cfg.ThptBinSeconds <= 0 {
		cfg.ThptBinSeconds = 1
	}
	tt, err := topology.BuildThreeTier(cfg.Topology)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	net := netsim.New(s, tt.Graph, cfg.Net)
	c := &Cluster{
		Cfg:       cfg,
		Sim:       s,
		Net:       net,
		TT:        tt,
		rng:       sim.NewRNG(cfg.Seed),
		mux:       transport.NewMux(net),
		lastBin:   make(map[netsim.FlowID]int),
		failed:    make(map[topology.NodeID]bool),
		mitigated: make(map[topology.LinkID]bool),
	}
	c.Metrics.ThptBins = stats.NewTimeBins(cfg.ThptBinSeconds)
	c.Classifier = content.NewClassifier(content.DefaultClassifierConfig())

	if cfg.MigrateInterval > 0 {
		s.NewTicker(cfg.MigrateInterval, func() { c.MigrateCold() })
	}

	c.FES, err = dfs.New(cfg.NumNNS, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	for _, srv := range tt.Servers {
		if err := c.FES.AddBlockServer(dfs.NewBlockServer(srv, cfg.DiskBytes)); err != nil {
			return nil, err
		}
	}

	c.Power = power.NewModel()
	prng := c.rng.Split(1)
	for _, srv := range tt.Servers {
		prof := power.DefaultProfile()
		if cfg.HeterogeneousPower {
			prof = power.HeterogeneousProfile(prng)
		}
		if _, err := c.Power.Add(srv, prof); err != nil {
			return nil, err
		}
	}

	if cfg.ServerCPURate > 0 || cfg.ServerDiskRate > 0 {
		c.Hosts = hostres.NewModel()
		hrng := c.rng.Split(3)
		for _, srv := range tt.Servers {
			spec := hostres.Spec{CPURate: cfg.ServerCPURate, DiskRate: cfg.ServerDiskRate}
			if cfg.ServerBackgroundMax > 0 {
				spec.Background = cfg.ServerBackgroundMax * hrng.Float64()
			}
			if _, err := c.Hosts.Add(srv, spec); err != nil {
				return nil, err
			}
		}
	}

	switch cfg.System {
	case SCDA:
		ctrl, err := ratealloc.NewController(tt.Graph, net, cfg.Alloc)
		if err != nil {
			return nil, err
		}
		servers := make(map[topology.NodeID]bool, len(tt.Servers))
		for _, srv := range tt.Servers {
			servers[srv] = true
		}
		hier, err := ratealloc.NewHierarchy(ctrl, tt.Graph, servers)
		if err != nil {
			return nil, err
		}
		c.Ctrl, c.Hier = ctrl, hier
		c.Picker = &selection.Picker{H: hier, Power: c.Power, PowerAware: cfg.PowerAware, Rscale: cfg.Rscale}
		ctrl.OnViolation = c.handleViolation
		// the RM/RA control loop: rate computation then fig. 2 max/min
		// aggregation, every control interval τ
		sampleHosts := func() {
			if c.Hosts == nil {
				return
			}
			// refresh the R_other multi-resource terms before the rate
			// computation (section VI-A)
			for _, srv := range tt.Servers {
				ctrl.SetHostOther(srv, c.Hosts.Sample(c.Hosts.Get(srv)))
			}
		}
		if cfg.SJFScheduling {
			c.Sched = scheduler.New(ctrl)
		}
		s.NewTicker(cfg.Alloc.Tau, func() {
			sampleHosts()
			ctrl.Tick(s.Now())
			if c.Sched != nil {
				c.Sched.Step(s.Now())
			}
			hier.Update()
		})
		sampleHosts()
		ctrl.Tick(0)
		hier.Update()
	case RandTCP:
		c.Random = &selection.Random{Servers: tt.Servers, RNG: c.rng.Split(2)}
	default:
		return nil, fmt.Errorf("cluster: unknown system %d", cfg.System)
	}

	// power accounting: once per second, derive each server's utilisation
	// from its access-link byte counters and integrate energy
	prev := make(map[topology.NodeID][2]int64, len(tt.Servers))
	s.NewTicker(1.0, func() {
		now := s.Now()
		for _, srv := range tt.Servers {
			up := tt.UplinkOf[srv]
			down := tt.Graph.Links[up].Reverse
			sentUp := net.Stats(up).SentBytes
			sentDown := net.Stats(down).SentBytes
			p := prev[srv]
			bits := float64((sentUp-p[0])+(sentDown-p[1])) * 8
			prev[srv] = [2]int64{sentUp, sentDown}
			ps := c.Power.Get(srv)
			ps.SetUtilization(bits / tt.Graph.Links[up].Capacity)
			ps.Accrue(now)
			// feed the running-average sensor (P = T/τ path)
			ps.Measure(c.Power, ps.Draw(now))
		}
	})

	// throughput accounting: payload bits delivered to any host, binned
	net.OnDeliver = func(p *netsim.Packet) {
		if p.Ack {
			return
		}
		bin := int(s.Now() / cfg.ThptBinSeconds)
		c.Metrics.ThptBins.Add(s.Now(), float64(p.Size*8))
		if c.lastBin[p.Flow] != bin+1 {
			c.lastBin[p.Flow] = bin + 1
			for len(c.Metrics.ActiveFlows) <= bin {
				c.Metrics.ActiveFlows = append(c.Metrics.ActiveFlows, 0)
			}
			c.Metrics.ActiveFlows[bin]++
		}
	}
	return c, nil
}

func (c *Cluster) handleViolation(v ratealloc.Violation) {
	c.Metrics.Violations++
	if c.MitigateViolations && !c.mitigated[v.Link] {
		c.mitigated[v.Link] = true
		// bring up the reserve link: +50% capacity in both planes
		newCap := c.TT.Graph.Links[v.Link].Capacity * 1.5
		c.Net.SetCapacity(v.Link, newCap)
		c.Ctrl.SetCapacity(v.Link, newCap)
	}
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// canStoreFilter admits live servers with disk space for size bytes.
func (c *Cluster) canStoreFilter(size int64) selection.Filter {
	return func(n topology.NodeID) bool {
		if c.failed[n] {
			return false
		}
		bs := c.FES.BlockServer(n)
		return bs != nil && bs.CanStore(size)
	}
}

// pickWriteServer selects the primary per the active system.
func (c *Cluster) pickWriteServer(class content.Class, size int64) (topology.NodeID, error) {
	f := c.canStoreFilter(size)
	if c.Cfg.System == SCDA {
		return c.Picker.PickWrite(c.Hier.Root(), class, f, c.Sim.Now())
	}
	return c.Random.PickWrite(f)
}

// startTransfer launches a flow on the system's transport and registers
// bookkeeping. done runs on completion with the FCT.
func (c *Cluster) startTransfer(src, dst topology.NodeID, size int64, op workload.Op, internal bool, done func(float64)) {
	id := c.ids.Next()
	var busy []*hostres.Host
	if c.Hosts != nil {
		for _, ep := range []topology.NodeID{src, dst} {
			if h := c.Hosts.Get(ep); h != nil {
				h.Begin()
				busy = append(busy, h)
			}
		}
	}
	record := func(fct float64) {
		for _, h := range busy {
			h.End()
		}
		c.Metrics.Records = append(c.Metrics.Records, FlowRecord{
			Size: size, Start: c.Sim.Now() - fct, FCT: fct, Op: op, Internal: internal,
		})
		if !internal {
			c.Metrics.Completed++
		}
		if done != nil {
			done(fct)
		}
	}
	if !internal {
		c.Metrics.Started++
	}
	switch c.Cfg.System {
	case SCDA:
		path, err := c.Net.Routes.Path(src, dst, transport.Hash(id))
		if err != nil || len(path) == 0 {
			return
		}
		if err := c.Ctrl.Register(&ratealloc.Flow{ID: id, Path: path}); err != nil {
			return
		}
		fl := scdatp.Start(c.mux, c.Ctrl, &scdatp.Flow{Conn: transport.Conn{
			ID: id, Src: src, Dst: dst, Size: size,
			OnComplete: func(fct sim.Time) {
				if c.Sched != nil {
					c.Sched.Detach(id)
				}
				c.Ctrl.Unregister(id)
				record(fct)
			},
		}}, c.Cfg.SCDATransport)
		if c.Sched != nil {
			// implicit SJF (section IV-A): weight by bytes remaining,
			// refreshed live from the transport's ACK state
			pol := &sjfPolicy{flow: fl, sjf: &scheduler.SJF{Scale: float64(c.FES.BlockSize)}}
			_ = c.Sched.Attach(id, pol)
		}
	case RandTCP:
		tcp.Start(c.mux, &tcp.Flow{Conn: transport.Conn{
			ID: id, Src: src, Dst: dst, Size: size,
			OnComplete: func(fct sim.Time) { record(fct) },
		}}, c.Cfg.TCP)
	}
}

// SubmitWrite serves an external write request (section VIII-A): place the
// content, transfer it from the client, then optionally replicate
// internally (VIII-B).
func (c *Cluster) SubmitWrite(req workload.Request) error {
	if req.Client < 0 || req.Client >= len(c.TT.Clients) {
		return fmt.Errorf("cluster: client %d out of range", req.Client)
	}
	ucl := c.TT.Clients[req.Client]
	class := req.Class
	info := content.Info{ID: req.Content, Size: req.Size, Declared: class}
	primary, err := c.pickWriteServer(info.Effective(), req.Size)
	if err != nil {
		return fmt.Errorf("cluster: placing %s: %w", req.Content, err)
	}
	placements := make([]topology.NodeID, len(c.FES.SplitBlocks(req.Size)))
	for i := range placements {
		placements[i] = primary
	}
	meta, err := c.FES.Create(info, placements)
	if err != nil {
		return err
	}
	c.observeAccess(req.Content, workload.Write)
	start := func() {
		c.startTransfer(ucl, primary, req.Size, workload.Write, false, func(float64) {
			if c.Cfg.Replicate {
				c.replicate(meta, primary)
			}
		})
	}
	if c.Cfg.ControlDelay > 0 {
		c.Sim.After(c.Cfg.ControlDelay, start)
	} else {
		start()
	}
	return nil
}

// replicate performs the internal write of VIII-B for every block.
func (c *Cluster) replicate(meta *dfs.Meta, primary topology.NodeID) {
	class := meta.Info.Effective()
	var target topology.NodeID
	var err error
	if c.Cfg.System == SCDA {
		target, err = c.Picker.PickReplica(c.Hier.Root(), class, primary, c.canStoreFilter(meta.TotalSize()), c.Sim.Now())
	} else {
		target, err = c.Random.PickReplica(primary, c.canStoreFilter(meta.TotalSize()))
	}
	if err != nil {
		return // nowhere to replicate; content stays single-copy
	}
	for _, b := range meta.Blocks {
		if err := c.FES.AddReplica(b.ID, target); err != nil {
			continue
		}
		c.startTransfer(primary, target, b.Size, workload.Write, true, nil)
	}
}

// SubmitRead serves an external read (section VIII-C): choose the replica
// with the best up-link rate and transfer server→client.
func (c *Cluster) SubmitRead(req workload.Request) error {
	if req.Client < 0 || req.Client >= len(c.TT.Clients) {
		return fmt.Errorf("cluster: client %d out of range", req.Client)
	}
	ucl := c.TT.Clients[req.Client]
	meta, err := c.FES.Lookup(req.Content)
	if err != nil {
		return err
	}
	c.observeAccess(req.Content, workload.Read)
	start := func() {
		for _, b := range meta.Blocks {
			var src topology.NodeID
			var err error
			alive := c.aliveReplicas(b.Replicas)
			if c.Cfg.System == SCDA {
				src, err = c.Picker.PickRead(alive, c.Sim.Now())
			} else {
				src, err = c.Random.PickRead(alive)
			}
			if err != nil {
				continue
			}
			c.FES.MarkRead(b.ID, src)
			c.startTransfer(src, ucl, b.Size, workload.Read, false, nil)
		}
	}
	if c.Cfg.ControlDelay > 0 {
		c.Sim.After(c.Cfg.ControlDelay, start)
	} else {
		start()
	}
	return nil
}

// Submit dispatches a request by operation.
func (c *Cluster) Submit(req workload.Request) error {
	if req.Op == workload.Read {
		return c.SubmitRead(req)
	}
	return c.SubmitWrite(req)
}

// RunWorkload schedules all requests at their arrival times and runs the
// simulation until horizon seconds (flows still in flight at the horizon
// are not recorded, matching the paper's "flows ... which finish within
// simulation time"). Returns the metrics.
//
// The requests go on one sim.Lane with one shared callback that receives
// &reqs[i], so the request stream holds one heap slot rather than one
// per request; workload generators return requests sorted by arrival,
// and a request out of order still fires at its time. reqs must not be
// modified until RunWorkload returns.
func (c *Cluster) RunWorkload(reqs []workload.Request, horizon float64) *Metrics {
	submit := func(arg any) {
		// placement failures (disk full, no candidate) drop the
		// request, as a real admission-controlled cloud would
		_ = c.Submit(*arg.(*workload.Request))
	}
	arrivals := c.Sim.NewLane()
	for i := range reqs {
		arrivals.AtArg(reqs[i].At, submit, &reqs[i])
	}
	c.Sim.RunUntil(horizon)
	c.Metrics.Drops = c.Net.TotalDrops
	if c.Ctrl != nil {
		c.Metrics.Violations = c.Ctrl.Violations
	}
	return &c.Metrics
}

// sjfPolicy adapts scheduler.SJF to live transport progress.
type sjfPolicy struct {
	flow *scdatp.Flow
	sjf  *scheduler.SJF
}

// Weight implements scheduler.Policy.
func (p *sjfPolicy) Weight(currentRate, now float64) float64 {
	p.sjf.SetRemaining(float64(p.flow.RemainingBytes()))
	return p.sjf.Weight(currentRate, now)
}

// MeanFCT returns the mean external-flow completion time (NaN when none).
func (m *Metrics) MeanFCT() float64 {
	var o stats.Online
	for _, r := range m.Records {
		if !r.Internal {
			o.Add(r.FCT)
		}
	}
	if o.N() == 0 {
		return math.NaN()
	}
	return o.Mean()
}
