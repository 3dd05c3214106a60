package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadMini(t *testing.T) *Spec {
	t.Helper()
	s, err := Load("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenRoundTrip pins the marshalled form of the parsed spec: parsing
// the testdata spec and re-marshalling it must reproduce the golden file
// byte-for-byte, and re-parsing the marshalled form must yield an equal
// Spec. Catches silent schema drift (renamed or retyped fields).
func TestGoldenRoundTrip(t *testing.T) {
	s := loadMini(t)
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "mini.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("marshalled spec differs from %s (re-run with -update if intended)\ngot:\n%s", golden, got)
	}
	// RawMessage params keep their source formatting, so compare the
	// re-marshalled forms: parse(marshal(s)) must marshal identically
	back, err := Parse(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("re-parsing marshalled spec: %v", err)
	}
	got2, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got2, '\n'), got) {
		t.Error("spec does not survive a marshal/parse/marshal round trip")
	}
}

// TestValidationErrors drives the validator with targeted mutations of a
// valid spec and checks each fails with a message naming the problem.
func TestValidationErrors(t *testing.T) {
	base, err := os.ReadFile("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	topo := func(m map[string]any) map[string]any { return m["topology"].(map[string]any) }
	cases := []struct {
		name    string
		mutate  func(m map[string]any)
		wantSub string
	}{
		{"bad version", func(m map[string]any) { m["version"] = 2.0 }, "version 2 unsupported"},
		{"bad name", func(m map[string]any) { m["name"] = "Mini Spec!" }, "not [a-z0-9-]"},
		{"no duration", func(m map[string]any) { delete(m, "duration") }, "duration"},
		{"horizon before duration", func(m map[string]any) { m["horizon"] = 1.0 }, "horizon"},
		{"bad topology kind", func(m map[string]any) {
			m["topology"].(map[string]any)["kind"] = "fattree"
		}, "unknown topology kind"},
		{"fig6 reshaped", func(m map[string]any) {
			m["topology"].(map[string]any)["kind"] = "fig6"
		}, "fig6 admits only x and k"},
		{"bad system kind", func(m map[string]any) {
			m["system"].(map[string]any)["kind"] = "dctcp"
		}, "unknown system kind"},
		{"migration without rscale", func(m map[string]any) {
			m["system"].(map[string]any)["migrateInterval"] = 5.0
		}, "requires system.rscale"},
		{"scda knob under randtcp", func(m map[string]any) {
			m["system"].(map[string]any)["kind"] = "randtcp"
			m["system"].(map[string]any)["sjf"] = true
		}, "requires system.kind scda"},
		{"no workload", func(m map[string]any) { m["workload"] = []any{} }, "no phases"},
		{"unknown generator", func(m map[string]any) {
			m["workload"].([]any)[0].(map[string]any)["generator"] = "bittorrent"
		}, "unknown generator"},
		{"unknown generator param", func(m map[string]any) {
			m["workload"].([]any)[0].(map[string]any)["params"] = map[string]any{"Ratez": 1.0}
		}, "params"},
		{"invalid generator param", func(m map[string]any) {
			m["workload"].([]any)[0].(map[string]any)["params"] = map[string]any{"ArrivalRate": -3.0}
		}, "ArrivalRate"},
		{"phase beyond duration", func(m map[string]any) {
			m["workload"].([]any)[1].(map[string]any)["start"] = 9.0
		}, "outside [0, 5)"},
		{"unknown fault kind", func(m map[string]any) {
			m["faults"].([]any)[0].(map[string]any)["kind"] = "cut-link"
		}, "unknown kind"},
		{"fault server out of range", func(m map[string]any) {
			m["faults"].([]any)[0].(map[string]any)["server"] = 4.0
		}, "out of range"},
		{"unknown output series", func(m map[string]any) {
			m["outputs"].(map[string]any)["series"] = []any{"latency"}
		}, "unknown output series"},
		{"unsweepable parameter", func(m map[string]any) {
			m["sweep"] = map[string]any{"parameter": "system.blocksize", "values": []any{1.0}}
		}, "unsweepable"},
		{"empty sweep", func(m map[string]any) {
			m["sweep"] = map[string]any{"parameter": "topology.k", "values": []any{}}
		}, "no values"},
		{"fractional nns sweep", func(m map[string]any) {
			m["sweep"] = map[string]any{"parameter": "system.nns", "values": []any{1.5}}
		}, "not a positive integer"},
		{"duplicate sweep values", func(m map[string]any) {
			m["sweep"] = map[string]any{"parameter": "topology.k", "values": []any{2.0, 2.0}}
		}, "repeats"},
		{"sweep variant breaks invariant", func(m map[string]any) {
			// duration 1.5 puts phase 1 (start 2) outside the horizon:
			// the base spec is fine, only the variant is invalid
			m["sweep"] = map[string]any{"parameter": "duration", "values": []any{1.5}}
		}, "outside [0, 1.5)"},
		{"fault beyond horizon", func(m map[string]any) {
			m["faults"].([]any)[0].(map[string]any)["at"] = 50.0
		}, "outside the simulated"},
		{"negative racks", func(m map[string]any) { topo(m)["racks"] = -1.0 }, "topology: Racks = -1"},
		{"negative serversPerRack", func(m map[string]any) { topo(m)["serversPerRack"] = -1.0 }, "topology: ServersPerRack = -1"},
		{"negative aggSwitches", func(m map[string]any) { topo(m)["aggSwitches"] = -1.0 }, "topology: AggSwitches = -1"},
		{"negative clients", func(m map[string]any) { topo(m)["clients"] = -1.0 }, "topology: Clients = -1"},
		{"negative x", func(m map[string]any) { topo(m)["x"] = -5e7 }, "topology: X = -5e+07"},
		{"negative k", func(m map[string]any) { topo(m)["k"] = -2.0 }, "topology: K = -2"},
		{"negative coreFactor", func(m map[string]any) { topo(m)["coreFactor"] = -6.0 }, "topology: CoreFactor = -6"},
		{"negative dcDelay", func(m map[string]any) { topo(m)["dcDelay"] = -0.001 }, "topology: DCDelay = -0.001"},
		{"negative wanDelay", func(m map[string]any) { topo(m)["wanDelay"] = -0.05 }, "topology: WANDelay = -0.05"},
		{"rack uplink underflows", func(m map[string]any) {
			topo(m)["x"], topo(m)["k"] = 5e-324, 0.5
		}, "topology: K*X = 0"},
		// a request's client indexes the topology's client list
		{"phase clients beyond topology", func(m map[string]any) {
			m["workload"].([]any)[0].(map[string]any)["params"].(map[string]any)["Clients"] = 9.0
		}, "phase 0 (dc): Clients = 9 exceeds the topology's 8 clients"},
		{"fluid phase clients beyond topology", func(m map[string]any) {
			m["engine"] = "fluid"
			m["system"] = map[string]any{}
			delete(m, "faults")
			m["workload"] = []any{map[string]any{"generator": "pareto", "params": map[string]any{"ArrivalRate": 50.0}}}
		}, "phase 0 (pareto): Clients = 40 exceeds the topology's 8 clients"},
		// encoding/json would let the later, lower-case key win, while
		// the canonical form sorts it last
		{"params key repeated up to case", func(m map[string]any) {
			m["workload"].([]any)[0].(map[string]any)["params"].(map[string]any)["arrivalrate"] = 3.0
		}, `key "arrivalrate" repeats "ArrivalRate"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(base, &m); err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = parseNoPanic(t, raw)
			if err == nil {
				t.Fatalf("mutation %q validated", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseRejectsUnknownFieldsAndTrailing(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"version":1,"name":"x","duration":1,"workloads":[]}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	base, _ := os.ReadFile("testdata/mini.json")
	if _, err := Parse(bytes.NewReader(append(base, []byte("{}")...))); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestRunDeterminism is the acceptance backstop: the same spec produces
// byte-identical output files — summary, every series CSV, and the trace —
// across two independent runs.
func TestRunDeterminism(t *testing.T) {
	s := loadMini(t)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var files [2]map[string][]byte
	for i, dir := range dirs {
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := r.WriteFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 5 { // summary + 3 series + trace
			t.Fatalf("wrote %d files, want 5: %v", len(paths), paths)
		}
		files[i] = map[string][]byte{}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Errorf("%s is empty", p)
			}
			files[i][filepath.Base(p)] = b
		}
	}
	for name, b := range files[0] {
		if !bytes.Equal(b, files[1][name]) {
			t.Errorf("%s differs between identical runs", name)
		}
	}
}

// TestRunFaultInjection checks the scheduled fail-server fault executes:
// the summary reports the failed server, and with replication enabled the
// orphaned blocks re-replicate (or are counted lost).
func TestRunFaultInjection(t *testing.T) {
	s := loadMini(t)
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Summary["failed_servers"]; got != 1 {
		t.Errorf("failed_servers = %v, want 1", got)
	}
	recovered := r.Summary["rereplicated"] + r.Summary["lost_blocks"] + r.Summary["unrecovered_blocks"]
	if recovered == 0 {
		t.Error("fault at t=3 with prior writes left no re-replication or loss evidence")
	}
	if r.Summary["completed"] == 0 {
		t.Error("no flows completed")
	}
}

// TestRunReplicatedAddsCI: replication produces _ci95 companions, a
// replicates count, and YErr-bearing series, and does not depend on the
// pool's worker count.
func TestRunReplicatedAddsCI(t *testing.T) {
	s := loadMini(t)
	s.Faults = nil
	r, err := RunReplicatedCtx(context.Background(), s, 3, runner.Serial(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary["replicates"] != 3 {
		t.Fatalf("replicates = %v", r.Summary["replicates"])
	}
	if _, ok := r.Summary["completed_ci95"]; !ok {
		t.Error("no completed_ci95 companion")
	}
	if len(r.Groups) != 3 || r.Groups[0].Series[0].YErr == nil {
		t.Error("aggregated series missing YErr")
	}
	par, err := RunReplicatedCtx(context.Background(), s, 3, runner.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Summary, par.Summary) {
		t.Error("replicated summary differs between serial and 4-worker pools")
	}
}

func TestExpandSweep(t *testing.T) {
	s := loadMini(t)
	s.Sweep = &SweepSpec{Parameter: "system.rscale", Values: []float64{0, 2.5e6}}
	vs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("expanded to %d variants", len(vs))
	}
	if vs[0].Name != "mini-system-rscale-0" || vs[1].Name != "mini-system-rscale-2p5e06" {
		t.Errorf("variant names: %q, %q", vs[0].Name, vs[1].Name)
	}
	for _, v := range vs {
		if v.Sweep != nil {
			t.Error("variant still carries a sweep")
		}
		if err := validName(v.Name); err != nil {
			t.Errorf("variant name invalid: %v", err)
		}
	}
	if vs[1].System.Rscale != 2.5e6 {
		t.Errorf("rscale not applied: %v", vs[1].System.Rscale)
	}
	if s.System.Rscale != 0 {
		t.Error("Expand mutated the base spec")
	}
	if _, err := ExpandAll([]*Spec{s, s}); err == nil {
		t.Error("duplicate names not rejected")
	}
}

// TestRunValidatesSpec: Run gates programmatically built specs, so an
// out-of-range fault target errors instead of panicking mid-simulation.
func TestRunValidatesSpec(t *testing.T) {
	s := loadMini(t)
	s.Faults = []FaultSpec{{At: 1, Kind: FailServer, Server: 99}}
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Run accepted invalid spec: err = %v", err)
	}
}

// TestShippedScenariosValidate walks the repository's scenarios/ directory
// — every spec we ship must load, validate, and expand.
func TestShippedScenariosValidate(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 6 {
		t.Errorf("only %d shipped scenarios, want >= 6", len(specs))
	}
	if _, err := ExpandAll(specs); err != nil {
		t.Error(err)
	}
}
