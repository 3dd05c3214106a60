// Package scenario is the declarative experiment layer: a versioned,
// validated JSON spec that names a topology, a phased workload program, the
// system under test, scheduled fault injection, and the desired outputs —
// so new experiments are data under scenarios/ instead of Go code under
// internal/experiments.
//
// A spec is self-contained and deterministic: everything random derives
// from its single seed, so the same file produces byte-identical output
// CSVs on every run, at any worker count. The package splits into three
// concerns:
//
//   - parsing and validation (this file): strict JSON (unknown fields are
//     errors), version gating, and eager validation of every cross-layer
//     reference — workload generators against the registry, their client
//     populations against the topology's client count, fault targets
//     against its server count, output kinds against the known
//     reductions — so a bad spec fails at load time with a line-addressable
//     error, never mid-simulation.
//   - building (build.go): lowering a spec onto cluster.Config and a
//     workload.Program.
//   - running (run.go): executing one spec (or a directory of them, with
//     replication and CI error bars) and writing the output files.
//
// See scenarios/README.md for the spec reference and ready-to-run
// examples.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// Version is the spec schema version this package reads and writes.
const Version = 1

// Spec is one declarative experiment: a named, seeded simulation of a
// workload program against a system on a topology, with optional fault
// injection and sweeps.
type Spec struct {
	// Version gates the schema; must equal Version.
	Version int `json:"version"`
	// Name identifies the scenario and prefixes its output files
	// (lowercase letters, digits and hyphens).
	Name string `json:"name"`
	// Description is free-form documentation carried with the spec.
	Description string `json:"description,omitempty"`
	// Seed drives all randomness (workload, placement, power profiles).
	Seed uint64 `json:"seed"`
	// Duration is the arrival horizon in seconds: no request arrives at or
	// after it.
	Duration float64 `json:"duration"`
	// Horizon is the simulation end, letting in-flight transfers drain;
	// 0 defaults to 3× Duration.
	Horizon float64 `json:"horizon,omitempty"`
	// Engine selects the simulation backend: "packet" (default, the
	// full discrete-event cluster) or "fluid" (max-min fluid flows via
	// internal/flowsim — orders of magnitude faster, scales to 100k+
	// concurrent transfers, but models no packet/control-plane effects,
	// so packet-only system knobs and faults are rejected under it).
	Engine string `json:"engine,omitempty"`

	Topology TopologySpec `json:"topology"`
	System   SystemSpec   `json:"system"`
	// Workload is the phased generator program; phases may overlap
	// (overlay) or abut (sequence).
	Workload []PhaseSpec `json:"workload"`
	// Faults schedules injected failures.
	Faults  []FaultSpec `json:"faults,omitempty"`
	Outputs OutputSpec  `json:"outputs,omitempty"`
	// Sweep, when present, expands this spec into one variant per value.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Search, when present, turns the spec into an optimization problem
	// over one sweepable parameter (see SearchSpec); such specs are
	// submitted to the service's /v1/searches endpoint or run with
	// `scda-bench -search`.
	Search *SearchSpec `json:"search,omitempty"`
}

// TopologySpec names the network under the cluster. Kind "fig6" is the
// paper's evaluation topology and admits only the bandwidth knobs the
// paper itself varies (x, k); kind "custom" opens every parameter of the
// three-tier builder. Non-tree fabrics (fat-tree, VL2) are exercised by
// ablation A8 at the flow level but cannot host the full cluster: the
// RM/RA hierarchy of section VI-A requires a switch tree (see
// ratealloc.NewHierarchy).
type TopologySpec struct {
	// Kind is "fig6" (default) or "custom".
	Kind string `json:"kind,omitempty"`
	// Racks, ServersPerRack, AggSwitches, Clients set the tree shape
	// (custom only; 0 keeps the fig. 6 default).
	Racks          int `json:"racks,omitempty"`
	ServersPerRack int `json:"serversPerRack,omitempty"`
	AggSwitches    int `json:"aggSwitches,omitempty"`
	Clients        int `json:"clients,omitempty"`
	// X is the base bandwidth in bits/sec; K the rack-to-aggregation
	// bandwidth factor (the paper varies both).
	X float64 `json:"x,omitempty"`
	K float64 `json:"k,omitempty"`
	// CoreFactor scales aggregation-to-core links (custom only).
	CoreFactor float64 `json:"coreFactor,omitempty"`
	// DCDelay / WANDelay are one-way link delays in seconds (custom only).
	DCDelay  float64 `json:"dcDelay,omitempty"`
	WANDelay float64 `json:"wanDelay,omitempty"`
}

// SystemSpec selects and tunes the system under test.
type SystemSpec struct {
	// Kind is "scda" (default) or "randtcp".
	Kind string `json:"kind,omitempty"`
	// NNS is the name-node count (0 = default 3; 1 reproduces the
	// single-name-node bottleneck).
	NNS int `json:"nns,omitempty"`
	// Replicate issues the internal VIII-B replication write after each
	// external write.
	Replicate bool `json:"replicate,omitempty"`
	// Rscale is the passive-content scale-down threshold in bits/sec
	// (section VII-C; 0 = off).
	Rscale float64 `json:"rscale,omitempty"`
	// PowerAware enables R̂/P selection over heterogeneous power profiles
	// (section VII-D).
	PowerAware bool `json:"powerAware,omitempty"`
	// SJF attaches the implicit shortest-job-first priority policy of
	// section IV-A to every flow (scda only).
	SJF bool `json:"sjf,omitempty"`
	// MigrateInterval runs the VII-C cold-content migration pass every
	// that many seconds (0 = off; requires rscale > 0).
	MigrateInterval float64 `json:"migrateInterval,omitempty"`
	// ControlDelay models the UCL→FES→NNS→RA request path latency in
	// seconds before each transfer starts.
	ControlDelay float64 `json:"controlDelay,omitempty"`
}

// PhaseSpec is one entry of the workload program.
type PhaseSpec struct {
	// Generator names a registered workload generator (workload.Names()).
	Generator string `json:"generator"`
	// Start offsets the phase on the scenario timeline in seconds.
	Start float64 `json:"start,omitempty"`
	// Duration bounds the phase's arrival window; 0 extends to the
	// scenario's Duration.
	Duration float64 `json:"duration,omitempty"`
	// Params overlays generator parameters onto the registered defaults;
	// field names match the generator's Go spec (e.g. "ArrivalRate").
	// Unknown fields are errors.
	Params json.RawMessage `json:"params,omitempty"`
}

// FaultSpec schedules one injected failure.
type FaultSpec struct {
	// At is the injection time in seconds.
	At float64 `json:"at"`
	// Kind selects the fault; "fail-server" is the only kind today.
	Kind string `json:"kind"`
	// Server indexes the topology's block-server list (rack-major order).
	Server int `json:"server"`
}

// Engine kinds: the simulation backends a scenario can select.
const (
	// EnginePacket is the full discrete-event cluster simulation — every
	// spec feature is available. Omitting "engine" means packet, and the
	// canonical encoding treats an explicit "packet" as the omitted
	// default, so pre-engine specs keep their content hashes.
	EnginePacket = "packet"
	// EngineFluid runs the workload as max-min fluid flows on the
	// topology (internal/flowsim): no packets, no control plane, no
	// storage — just arrival-ordered transfers sharing link capacity.
	EngineFluid = "fluid"
)

// FailServer is the fault kind that takes a block server out of service
// (cluster.FailServer): selection excludes it and orphaned blocks
// re-replicate from survivors.
const FailServer = "fail-server"

// Output kinds: the series reductions a scenario can request.
const (
	// OutThroughput is the average-instantaneous-throughput time series
	// (KB/sec per active flow, the paper's figs. 7/10/17 reduction).
	OutThroughput = "throughput"
	// OutFCTCDF is the flow-completion-time CDF (figs. 8/11/14/16/18).
	OutFCTCDF = "fct-cdf"
	// OutAFCT is AFCT binned by content size (figs. 9/12/13/15).
	OutAFCT = "afct"
)

// OutputSpec selects what a run writes.
type OutputSpec struct {
	// Series lists the reductions to emit; empty selects all three.
	Series []string `json:"series,omitempty"`
	// AFCTBinBytes is the afct size-bin width (default 1 MiB).
	AFCTBinBytes float64 `json:"afctBinBytes,omitempty"`
	// CDFPoints is the fct-cdf downsample count (default 64).
	CDFPoints int `json:"cdfPoints,omitempty"`
	// Trace additionally writes the generated workload as a replayable
	// trace CSV.
	Trace bool `json:"trace,omitempty"`
}

// SweepSpec expands a spec into one variant per value of a single
// parameter, so a parameter study ships as one file.
type SweepSpec struct {
	// Parameter is one of "system.rscale", "system.nns", "topology.k",
	// "topology.x", "duration" or "seed".
	Parameter string `json:"parameter"`
	// Values are applied one per variant.
	Values []float64 `json:"values"`
}

// sweepParams enumerates the sweepable parameters.
var sweepParams = map[string]bool{
	"system.rscale": true, "system.nns": true, "topology.k": true,
	"topology.x": true, "duration": true, "seed": true,
}

// Parse reads, strictly decodes and validates one spec. Unknown JSON
// fields at any level are errors, so typos fail loudly instead of
// silently running the default, and so is a generator params key that
// repeats another up to case, which the canonical form could not keep.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// reject trailing garbage after the spec object
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for i, ph := range s.Workload {
		if err := uniqueParamKeys(ph.Params); err != nil {
			return nil, fmt.Errorf("scenario %s: phase %d (%s) params: %w", s.Name, i, ph.Generator, err)
		}
	}
	return &s, nil
}

// Load parses and validates the spec at path.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir parses every *.json file in dir (sorted by filename, so run
// order is stable) and returns the validated specs.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Validate checks the whole spec: schema version, identifiers, topology
// and system kinds, every workload phase (including generator parameters,
// and its client population against the resolved client count), fault
// targets against the resolved server count, output kinds, and the sweep.
// It is the single gate both the CLIs' -validate mode and Run use.
// The topology is checked arithmetically (topology.ThreeTierSpec.Validate),
// never built, so validation costs the same on any fabric size; a run
// builds the graph exactly once.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: version %d unsupported (want %d)", s.Version, Version)
	}
	if err := validName(s.Name); err != nil {
		return err
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration = %v", s.Name, s.Duration)
	}
	if s.Horizon != 0 && s.Horizon < s.Duration {
		return fmt.Errorf("scenario %s: horizon %v shorter than duration %v", s.Name, s.Horizon, s.Duration)
	}
	tt, err := s.topologySpec()
	if err != nil {
		return err
	}
	if _, err := s.systemKind(); err != nil {
		return err
	}
	eng, err := s.engineKind()
	if err != nil {
		return err
	}
	if eng == EngineFluid {
		// every knob below shapes packet- or control-plane behavior the
		// fluid model does not have; accepting one would silently run a
		// plain fluid simulation while the spec claims otherwise
		if sys, _ := s.systemKind(); sys != cluster.SCDA {
			return fmt.Errorf("scenario %s: system.kind %s requires engine packet", s.Name, s.System.Kind)
		}
		switch {
		case s.System.SJF:
			return fmt.Errorf("scenario %s: system.sjf requires engine packet", s.Name)
		case s.System.PowerAware:
			return fmt.Errorf("scenario %s: system.powerAware requires engine packet", s.Name)
		case s.System.MigrateInterval > 0:
			return fmt.Errorf("scenario %s: system.migrateInterval requires engine packet", s.Name)
		case s.System.Rscale > 0:
			return fmt.Errorf("scenario %s: system.rscale requires engine packet", s.Name)
		case s.System.Replicate:
			return fmt.Errorf("scenario %s: system.replicate requires engine packet", s.Name)
		case s.System.ControlDelay > 0:
			return fmt.Errorf("scenario %s: system.controlDelay requires engine packet", s.Name)
		case s.System.NNS != 0:
			return fmt.Errorf("scenario %s: system.nns requires engine packet", s.Name)
		case len(s.Faults) > 0:
			return fmt.Errorf("scenario %s: faults require engine packet", s.Name)
		}
	}
	if s.System.NNS < 0 {
		return fmt.Errorf("scenario %s: system.nns = %d", s.Name, s.System.NNS)
	}
	if s.System.MigrateInterval > 0 && s.System.Rscale <= 0 {
		return fmt.Errorf("scenario %s: system.migrateInterval requires system.rscale > 0", s.Name)
	}
	// the selection/scheduling knobs only exist in the SCDA branch of the
	// cluster; accepting them under randtcp would silently run a plain
	// baseline while the spec claims otherwise
	if sys, _ := s.systemKind(); sys == cluster.RandTCP {
		switch {
		case s.System.SJF:
			return fmt.Errorf("scenario %s: system.sjf requires system.kind scda", s.Name)
		case s.System.PowerAware:
			return fmt.Errorf("scenario %s: system.powerAware requires system.kind scda", s.Name)
		case s.System.Rscale > 0:
			return fmt.Errorf("scenario %s: system.rscale requires system.kind scda", s.Name)
		}
	}
	prog, err := s.BuildWorkload()
	if err != nil {
		return err
	}
	// a request's Client indexes the topology's client list, so a larger
	// population has requests no client can send
	for i, ph := range prog.Phases {
		if c, ok := workload.ClientPopulation(ph.Gen); ok && c > tt.Clients {
			return fmt.Errorf("scenario %s: phase %d (%s): Clients = %d exceeds the topology's %d clients",
				s.Name, i, s.Workload[i].Generator, c, tt.Clients)
		}
	}
	nServers := tt.Racks * tt.ServersPerRack
	for i, f := range s.Faults {
		if f.Kind != FailServer {
			return fmt.Errorf("scenario %s: fault %d: unknown kind %q (want %q)", s.Name, i, f.Kind, FailServer)
		}
		if f.At < 0 || f.At >= s.horizonOrDefault() {
			return fmt.Errorf("scenario %s: fault %d: at = %v outside the simulated [0, %v)", s.Name, i, f.At, s.horizonOrDefault())
		}
		if f.Server < 0 || f.Server >= nServers {
			return fmt.Errorf("scenario %s: fault %d: server %d out of range [0, %d)", s.Name, i, f.Server, nServers)
		}
		for j := 0; j < i; j++ {
			if s.Faults[j].Server == f.Server {
				return fmt.Errorf("scenario %s: faults %d and %d fail the same server %d", s.Name, j, i, f.Server)
			}
		}
	}
	for _, kind := range s.Outputs.Series {
		switch kind {
		case OutThroughput, OutFCTCDF, OutAFCT:
		default:
			return fmt.Errorf("scenario %s: unknown output series %q (want %s, %s or %s)",
				s.Name, kind, OutThroughput, OutFCTCDF, OutAFCT)
		}
	}
	if s.Outputs.AFCTBinBytes < 0 || s.Outputs.CDFPoints < 0 {
		return fmt.Errorf("scenario %s: negative output parameters", s.Name)
	}
	if s.Sweep != nil {
		if s.Search != nil {
			return fmt.Errorf("scenario %s: sweep and search blocks are mutually exclusive", s.Name)
		}
		if !sweepParams[s.Sweep.Parameter] {
			return fmt.Errorf("scenario %s: unsweepable parameter %q", s.Name, s.Sweep.Parameter)
		}
		if len(s.Sweep.Values) == 0 {
			return fmt.Errorf("scenario %s: sweep has no values", s.Name)
		}
		if _, err := s.Expand(); err != nil {
			return err
		}
	}
	if s.Search != nil {
		if err := s.Search.validate(s); err != nil {
			return err
		}
	}
	return nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("scenario: name missing")
	}
	for _, c := range name {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			return fmt.Errorf("scenario: name %q not [a-z0-9-]", name)
		}
	}
	return nil
}

// Expand resolves the sweep (if any) into one self-contained variant spec
// per value, named <name>-<param>-<value>. Every variant is re-validated
// (a swept value can break invariants the base spec satisfies — e.g. a
// duration shorter than a phase start) and variant names must be unique,
// since they prefix output files. A spec without a sweep expands to
// itself.
func (s *Spec) Expand() ([]*Spec, error) {
	if s.Sweep == nil {
		return []*Spec{s}, nil
	}
	seen := make(map[string]bool, len(s.Sweep.Values))
	out := make([]*Spec, 0, len(s.Sweep.Values))
	for _, v := range s.Sweep.Values {
		variant, err := SetParameter(s, s.Sweep.Parameter, v)
		if err != nil {
			return nil, err
		}
		suffix := strings.ReplaceAll(s.Sweep.Parameter, ".", "-")
		variant.Name = fmt.Sprintf("%s-%s-%s", s.Name, suffix, formatSweepValue(v))
		if seen[variant.Name] {
			return nil, fmt.Errorf("scenario %s: sweep value %v repeats (variant %s)", s.Name, v, variant.Name)
		}
		seen[variant.Name] = true
		// variants carry no sweep, so this cannot recurse
		if err := variant.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: sweep value %v: %w", s.Name, v, err)
		}
		out = append(out, variant)
	}
	return out, nil
}

// formatSweepValue renders a sweep value filename-safely: 2.5e+06 becomes
// "2.5e06", keeping variant names within [a-z0-9-].
func formatSweepValue(v float64) string {
	t := fmt.Sprintf("%g", v)
	t = strings.ReplaceAll(t, "+", "")
	t = strings.ReplaceAll(t, ".", "p")
	t = strings.ReplaceAll(t, "-", "m")
	return t
}

// ExpandAll expands every spec's sweep and flattens the result, checking
// that all resulting names are unique (they prefix output files).
func ExpandAll(specs []*Spec) ([]*Spec, error) {
	var out []*Spec
	seen := map[string]bool{}
	for _, s := range specs {
		vs, err := s.Expand()
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			if seen[v.Name] {
				return nil, fmt.Errorf("scenario: duplicate scenario name %q", v.Name)
			}
			seen[v.Name] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// decodeStrict unmarshals raw into v, rejecting unknown fields.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// uniqueParamKeys rejects a params object with a key that repeats an
// earlier one under the case folding encoding/json matches fields with
// (strings.EqualFold). The decoder lets the last such key win, but
// CanonicalJSON sorts keys, so {"arrivalrate": 3, "ArrivalRate": 2} would
// hash like the different experiment {"ArrivalRate": 2, "arrivalrate": 3}.
// Callers validate first: every key then names a generator field, so the
// scan meets any repeat within the first few keys.
func uniqueParamKeys(raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return err // null: no keys
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key := tok.(string)
		for _, prev := range keys {
			if strings.EqualFold(key, prev) {
				return fmt.Errorf("key %q repeats %q", key, prev)
			}
		}
		keys = append(keys, key)
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return err
		}
	}
	return nil
}

// BuildWorkload lowers the phase list onto a validated workload.Program:
// each phase's generator comes fresh from the registry with the spec's
// params overlaid on the defaults.
func (s *Spec) BuildWorkload() (workload.Program, error) {
	if len(s.Workload) == 0 {
		return workload.Program{}, fmt.Errorf("scenario %s: workload has no phases", s.Name)
	}
	prog := workload.Program{Phases: make([]workload.Phase, len(s.Workload))}
	for i, ph := range s.Workload {
		gen, err := workload.New(ph.Generator)
		if err != nil {
			return workload.Program{}, fmt.Errorf("scenario %s: phase %d: %w", s.Name, i, err)
		}
		if len(ph.Params) > 0 {
			if err := decodeStrict(ph.Params, gen); err != nil {
				return workload.Program{}, fmt.Errorf("scenario %s: phase %d (%s) params: %w", s.Name, i, ph.Generator, err)
			}
		}
		if ph.Start < 0 || ph.Start >= s.Duration {
			return workload.Program{}, fmt.Errorf("scenario %s: phase %d start %v outside [0, %v)", s.Name, i, ph.Start, s.Duration)
		}
		if ph.Duration < 0 {
			return workload.Program{}, fmt.Errorf("scenario %s: phase %d duration = %v", s.Name, i, ph.Duration)
		}
		prog.Phases[i] = workload.Phase{Gen: gen, Start: ph.Start, Duration: ph.Duration}
	}
	if err := prog.Validate(); err != nil {
		return workload.Program{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return prog, nil
}
