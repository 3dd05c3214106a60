package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/flowsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// input is one generated spec and its untraced reference result.
type input struct {
	body    []byte
	fluid   bool
	custom  bool // topology kind custom rather than fig6
	digest  [32]byte
	summary map[string]float64
	kinds   []string // the result's series kinds, in order
	cnt     counts   // set by the count pass
	counted bool
}

// newInput parses body and runs it through scenario.Run for the
// reference digest and summary.
func newInput(body []byte) (*input, error) {
	spec, err := scenario.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	in := &input{body: body, fluid: spec.Engine == scenario.EngineFluid, custom: spec.Topology.Kind == "custom", summary: r.Summary}
	for _, g := range r.Groups {
		in.kinds = append(in.kinds, g.Kind)
	}
	if in.digest, err = resultDigest(r); err != nil {
		return nil, err
	}
	return in, nil
}

// refCache memoizes reference inputs by spec body, so a workload can
// compute its references once per run, before and outside the timed
// set-ups.
type refCache map[string]*input

func (c refCache) get(body []byte) (*input, error) {
	if in, ok := c[string(body)]; ok {
		return in, nil
	}
	in, err := newInput(body)
	if err != nil {
		return nil, err
	}
	c[string(body)] = in
	return in, nil
}

// resultDigest hashes the summary CSV and every series CSV, written by the
// public encoders, in result order.
func resultDigest(r *scenario.Result) ([32]byte, error) {
	var parts [][]byte
	var b bytes.Buffer
	if err := r.WriteSummaryCSV(&b); err != nil {
		return [32]byte{}, err
	}
	parts = append(parts, append([]byte(nil), b.Bytes()...))
	for _, g := range r.Groups {
		b.Reset()
		if err := r.WriteSeriesCSV(&b, g.Kind); err != nil {
			return [32]byte{}, err
		}
		parts = append(parts, append([]byte(nil), b.Bytes()...))
	}
	return partsDigest(parts), nil
}

// partsDigest hashes length-prefixed parts, so served CSVs fetched one by
// one digest the same as the encoders' output.
func partsDigest(parts [][]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// run is one untraced offline op on the input: scenario.Parse, then
// scenario.Run, then the encoders; the digest must equal the reference.
func (in *input) run() error {
	spec, err := scenario.Parse(bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	r, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	d, err := resultDigest(r)
	if err != nil {
		return err
	}
	if d != in.digest {
		return fmt.Errorf("result digest %x differs from the set-up digest %x", d[:8], in.digest[:8])
	}
	return nil
}

// replay is one traced offline op: it repeats scenario.Run's steps through
// the layers' public functions under tr, rebuilds the Result, and checks
// the replay against the reference: the same digest, the same exact counts
// as the reference summary, and, once the count pass has run, the same
// counts as every earlier replay.
func (in *input) replay(tr *tracer, op int64) (counts, error) {
	var cnt counts
	var d [32]byte
	var err error
	if in.fluid {
		root := tr.begin("op.fluid", op, -1)
		cnt, d, err = replayFluid(tr, op, root, in.body)
		tr.end(root)
	} else {
		root := tr.begin("op.packet", op, -1)
		cnt, d, err = replayPacket(tr, op, root, in.body)
		tr.end(root)
	}
	if err != nil {
		return cnt, err
	}
	if d != in.digest {
		return cnt, fmt.Errorf("replayed result digest %x differs from scenario.Run's %x", d[:8], in.digest[:8])
	}
	want := counts{Requests: int64(in.summary["requests"])}
	got := counts{Requests: cnt.Requests}
	if in.fluid {
		want.FlowsDone, want.PeakActive = int64(in.summary["completed"]), int64(in.summary["peak_active_flows"])
		got.FlowsDone, got.PeakActive = cnt.FlowsDone, cnt.PeakActive
	} else {
		want.Completed, want.Drops, want.Violations = int64(in.summary["completed"]), int64(in.summary["drops"]), int64(in.summary["violations"])
		got.Completed, got.Drops, got.Violations = cnt.Completed, cnt.Drops, cnt.Violations
	}
	if got != want {
		return cnt, fmt.Errorf("replayed counts %+v differ from scenario.Run's summary %+v", got, want)
	}
	if in.counted && cnt != in.cnt {
		return cnt, fmt.Errorf("replayed counts %+v differ from the count pass %+v", cnt, in.cnt)
	}
	return cnt, nil
}

// horizon mirrors scenario's default simulation end: 3× the duration.
func horizon(s *scenario.Spec) float64 {
	if s.Horizon > 0 {
		return s.Horizon
	}
	return 3 * s.Duration
}

// parseValidated is the shared head of both replays: Parse (which
// validates), then the second Validate that scenario.Run performs.
func parseValidated(tr *tracer, op int64, root int, body []byte) (*scenario.Spec, error) {
	sp := tr.begin("scenario.parse", op, root)
	spec, err := scenario.Parse(bytes.NewReader(body))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("scenario.validate", op, root)
	err = spec.Validate()
	tr.end(sp)
	return spec, err
}

// generate builds the spec's workload program and generates its requests.
func generate(tr *tracer, op int64, root int, spec *scenario.Spec) ([]workload.Request, error) {
	sp := tr.begin("scenario.build_workload", op, root)
	prog, err := spec.BuildWorkload()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("workload.generate", op, root)
	reqs := prog.Generate(sim.NewRNG(spec.Seed), spec.Duration)
	tr.endN(sp, int64(len(reqs)))
	return reqs, nil
}

// replayPacket replays a packet-engine scenario.Run and returns the exact
// counts and the rebuilt Result's digest.
func replayPacket(tr *tracer, op int64, root int, body []byte) (counts, [32]byte, error) {
	var cnt counts
	spec, err := parseValidated(tr, op, root, body)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp := tr.begin("scenario.cluster_config", op, root)
	cfg, err := spec.ClusterConfig()
	tr.end(sp)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	reqs, err := generate(tr, op, root, spec)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp = tr.begin("cluster.new", op, root)
	c, err := cluster.New(cfg)
	tr.end(sp)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	failed := 0
	for _, f := range spec.Faults {
		node := c.TT.Servers[f.Server]
		c.Sim.At(f.At, func() {
			if c.FailServer(node) == nil {
				failed++
			}
		})
	}
	sp = tr.begin("cluster.run", op, root)
	m := c.RunWorkload(reqs, horizon(spec))
	c.Power.AccrueAll(c.Sim.Now())
	tr.endN(sp, int64(c.Sim.Processed))

	sp = tr.begin("scenario.reduce", op, root)
	name := "SCDA"
	if cfg.System == cluster.RandTCP {
		name = "RandTCP"
	}
	r := rebuildResult(spec, m, len(reqs), name)
	r.Summary["energy_kj"] = c.Power.TotalEnergy() / 1e3
	r.Summary["failed_servers"] = float64(failed)
	tr.end(sp)
	sp = tr.begin("scenario.encode", op, root)
	d, err := resultDigest(r)
	tr.end(sp)

	cnt = counts{Events: int64(c.Sim.Processed), Packets: c.Net.Delivered, Drops: c.Net.TotalDrops,
		Completed: int64(m.Completed), Requests: int64(len(reqs))}
	if c.Ctrl != nil {
		cnt.Violations = c.Ctrl.Violations
	}
	return cnt, d, err
}

// rebuildResult reduces a run's metrics to a scenario.Result with the
// public Metrics reductions, the way scenario.Run's shared tail does for
// both engines; name labels the series.
func rebuildResult(s *scenario.Spec, m *cluster.Metrics, nreq int, name string) *scenario.Result {
	r := &scenario.Result{Spec: s, Requests: nreq}
	cdf := m.FCTCDF()
	r.Summary = map[string]float64{
		"requests":           float64(nreq),
		"started":            float64(m.Started),
		"completed":          float64(m.Completed),
		"drops":              float64(m.Drops),
		"violations":         float64(m.Violations),
		"lost_blocks":        float64(m.LostBlocks),
		"rereplicated":       float64(m.ReReplicated),
		"unrecovered_blocks": float64(m.UnrecoveredBlocks),
		"migrations":         float64(m.Migrations),
	}
	if cdf.N() > 0 {
		r.Summary["mean_fct_s"] = m.MeanFCT()
		r.Summary["median_fct_s"] = cdf.Quantile(0.5)
		r.Summary["p90_fct_s"] = cdf.Quantile(0.9)
		r.Summary["p99_fct_s"] = cdf.Quantile(0.99)
	}
	kinds := s.Outputs.Series
	if len(kinds) == 0 {
		kinds = []string{scenario.OutThroughput, scenario.OutFCTCDF, scenario.OutAFCT}
	}
	for _, kind := range kinds {
		g := scenario.SeriesGroup{Kind: kind}
		switch kind {
		case scenario.OutThroughput:
			g.XLabel, g.YLabel = "Simulation time (sec)", "Avg. Inst. Thpt (KB/sec)"
			g.Series = []stats.Series{{Name: name, Points: m.AvgInstThroughput()}}
		case scenario.OutFCTCDF:
			g.XLabel, g.YLabel = "FCT (sec)", "FCT CDF"
			n := s.Outputs.CDFPoints
			if n == 0 {
				n = 64
			}
			g.Series = []stats.Series{{Name: name, Points: cdf.Points(n)}}
		case scenario.OutAFCT:
			g.XLabel, g.YLabel = "File Size (bytes)", "AFCT (sec)"
			bin := s.Outputs.AFCTBinBytes
			if bin == 0 {
				bin = 1 << 20
			}
			g.Series = []stats.Series{{Name: name, Points: m.AFCTBySize(bin)}}
		}
		r.Groups = append(r.Groups, g)
	}
	return r
}

// fluidThptBinSeconds mirrors the fluid engine's throughput bin width.
const fluidThptBinSeconds = 1

// replayFluid replays a fluid-engine scenario.Run and returns the exact
// counts and the rebuilt Result's digest.
func replayFluid(tr *tracer, op int64, root int, body []byte) (counts, [32]byte, error) {
	var cnt counts
	spec, err := parseValidated(tr, op, root, body)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp := tr.begin("scenario.cluster_config", op, root)
	cfg, err := spec.ClusterConfig()
	tr.end(sp)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp = tr.begin("topology.build", op, root)
	tt, err := topology.BuildThreeTier(cfg.Topology)
	tr.end(sp)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	reqs, err := generate(tr, op, root, spec)
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp = tr.begin("workload.fluidmap", op, root)
	mapper := workload.NewFluidMapper(tt)
	flows, err := mapper.Map(nil, reqs)
	tr.endN(sp, int64(len(flows)))
	if err != nil {
		return cnt, [32]byte{}, err
	}
	sp = tr.begin("flowsim.add", op, root)
	fs := flowsim.New(tt.Graph)
	for i := range flows {
		f := fs.AcquireFlow()
		f.ID = int64(i)
		f.Path = flows[i].Path
		f.Size = flows[i].SizeBits
		if err := fs.AddFlow(flows[i].At, f); err != nil {
			tr.end(sp)
			return cnt, [32]byte{}, err
		}
	}
	tr.endN(sp, int64(len(flows)))
	sp = tr.begin("flowsim.run", op, root)
	h := horizon(spec)
	fs.Run(h)
	tr.endN(sp, int64(len(flows)))

	sp = tr.begin("scenario.reduce", op, root)
	m := &cluster.Metrics{ThptBins: stats.NewTimeBins(fluidThptBinSeconds), Started: len(flows), Completed: len(fs.Completed)}
	for _, f := range fs.Completed {
		fl := &flows[f.ID]
		m.Records = append(m.Records, cluster.FlowRecord{Size: int64(fl.SizeBits / 8), Start: f.Start, FCT: f.Finish - f.Start, Op: fl.Op})
		spreadBits(m, f.Start, f.Finish, fl.SizeBits)
	}
	for _, f := range fs.Flows() {
		spreadBits(m, f.Start, h, flows[f.ID].SizeBits-f.Size)
	}
	r := rebuildResult(spec, m, len(reqs), "Fluid")
	r.Summary["energy_kj"] = 0
	r.Summary["failed_servers"] = 0
	r.Summary["skipped_requests"] = float64(mapper.Skipped())
	r.Summary["peak_active_flows"] = float64(fs.PeakActive())
	tr.end(sp)
	sp = tr.begin("scenario.encode", op, root)
	d, err := resultDigest(r)
	tr.end(sp)
	return counts{Requests: int64(len(reqs)), PeakActive: int64(fs.PeakActive()), FlowsDone: int64(len(fs.Completed))}, d, err
}

// spreadBits books a flow's delivered bits into the throughput bins,
// spread uniformly over [start, end], and counts the flow active in every
// bin it overlaps, the way the fluid engine's reduction does.
func spreadBits(m *cluster.Metrics, start, end, bits float64) {
	if bits <= 0 {
		return
	}
	markActive := func(bin int) {
		for len(m.ActiveFlows) <= bin {
			m.ActiveFlows = append(m.ActiveFlows, 0)
		}
		m.ActiveFlows[bin]++
	}
	w := m.ThptBins.Width()
	if end <= start {
		m.ThptBins.Add(start, bits)
		markActive(int(start / w))
		return
	}
	rate := bits / (end - start)
	for b := int(start / w); float64(b)*w < end; b++ {
		lo, hi := max(float64(b)*w, start), min(float64(b+1)*w, end)
		if hi <= lo {
			continue
		}
		m.ThptBins.Add(lo, rate*(hi-lo))
		markActive(b)
	}
}

// probeReps is how often the probe phase times each call per body.
const probeReps = 5

// probeSpec times Parse, Validate and Hash on one body, by topology kind.
func probeSpec(tr *tracer, in *input) {
	kind := "fig6"
	if in.custom {
		kind = "custom"
	}
	for k := 0; k < probeReps; k++ {
		sp := tr.begin("scenario.parse."+kind, -1, -1)
		spec, err := scenario.Parse(bytes.NewReader(in.body))
		tr.end(sp)
		if err != nil {
			return // the reference run parsed it; unreachable
		}
		sp = tr.begin("scenario.validate."+kind, -1, -1)
		_ = spec.Validate() // Parse just validated it
		tr.end(sp)
		sp = tr.begin("scenario.hash."+kind, -1, -1)
		_, _ = spec.Hash() // CanonicalJSON of a parsed spec cannot fail
		tr.end(sp)
	}
}

// countInputs is the count pass shared by every workload: one traced
// replay per input, the counts summed.
func countInputs(tr *tracer, inputs []*input) (counts, error) {
	var total counts
	for k, in := range inputs {
		if !in.counted {
			c, err := in.replay(tr, int64(-1-k))
			if err != nil {
				return total, err
			}
			in.cnt, in.counted = c, true
		}
		total.merge(in.cnt)
	}
	return total, nil
}

// offline is the sim-packet or sim-fluid workload: serial ops, each one
// scenario.Run of a generated spec.
type offline struct {
	inputs []*input
	order  []int // op i runs inputs[order[i%len(order)]]
}

// offlineCycles is how many seeded permutations of the inputs make up the
// op schedule; every prefix of the schedule holds the shapes in nearly
// equal proportions.
const offlineCycles = 64

func newOffline(seed uint64, n int, gen func(k int, rng *sim.RNG) *scenario.Spec) (*offline, error) {
	rng := sim.NewRNG(seed)
	o := &offline{}
	for k := 0; k < n; k++ {
		in, err := newInput(encode(gen(k, rng)))
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", k, err)
		}
		o.inputs = append(o.inputs, in)
	}
	for c := 0; c < offlineCycles; c++ {
		o.order = append(o.order, rng.Perm(n)...)
	}
	return o, nil
}

// packetInputs is the number of distinct sim-packet specs: six per shape.
const packetInputs = 6 * packetShapes

func setupPacket(seed uint64, _ refCache) (instance, error) {
	return newOffline(seed, packetInputs, func(k int, rng *sim.RNG) *scenario.Spec {
		return packetSpec(k%packetShapes, fmt.Sprintf("packet-%d", k), rng)
	})
}

// fluidInputs is the number of distinct sim-fluid specs; every fourth is
// an arrival ramp, the rest churn.
const fluidInputs = 8

func setupFluid(seed uint64, _ refCache) (instance, error) {
	return newOffline(seed, fluidInputs, func(k int, rng *sim.RNG) *scenario.Spec {
		shape := 0
		if k%4 == 3 {
			shape = 1
		}
		return fluidSpec(shape, fmt.Sprintf("fluid-%d", k), rng)
	})
}

func (o *offline) op(c, i int, tr *tracer) error {
	in := o.inputs[o.order[i%len(o.order)]]
	if tr == nil {
		return in.run()
	}
	_, err := in.replay(tr, int64(i))
	return err
}

func (o *offline) window(bool, *tracer) error { return nil }

func (o *offline) countPass(tr *tracer) (counts, error) { return countInputs(tr, o.inputs) }

func (o *offline) bodies() []*input { return o.inputs }

func (o *offline) finish(tr *tracer, m *metrics) error {
	if tr != nil {
		addLayerMetrics(m, tr, phaseWindow, serviceLayer{})
	}
	return nil
}

func (o *offline) close() {}
