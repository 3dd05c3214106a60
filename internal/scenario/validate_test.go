package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// negDelaySpec is a small custom-fabric spec that is valid but for a
// negative intra-datacenter delay, which the three-tier builder rejects.
const negDelaySpec = `{
  "version": 1,
  "name": "neg-delay",
  "seed": 1,
  "duration": 2,
  "topology": {"kind": "custom", "racks": 2, "serversPerRack": 2, "aggSwitches": 1, "clients": 4, "dcDelay": -0.001},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 2, "Clients": 4}}]
}`

// parseNoPanic runs Parse and fails the test if it panics.
func parseNoPanic(t *testing.T, raw []byte) (*Spec, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Parse panicked: %v", r)
		}
	}()
	return Parse(bytes.NewReader(raw))
}

// TestValidateCostIndependentOfFabric pins that validation checks the
// topology arithmetically: the 500-client / 200-server fabric of
// scenarios/fluid-100k.json costs no more allocations to validate than the
// same spec on the default-shaped custom fabric, its phase drawing from the
// default 40 clients.
func TestValidateCostIndependentOfFabric(t *testing.T) {
	big, err := Load(filepath.Join("..", "..", "scenarios", "fluid-100k.json"))
	if err != nil {
		t.Fatal(err)
	}
	small := *big
	def := topology.DefaultThreeTier()
	small.Topology.Racks, small.Topology.ServersPerRack = def.Racks, def.ServersPerRack
	small.Topology.AggSwitches, small.Topology.Clients = def.AggSwitches, def.Clients
	var params map[string]any
	if err := json.Unmarshal(big.Workload[0].Params, &params); err != nil {
		t.Fatal(err)
	}
	params["Clients"] = def.Clients
	small.Workload = []PhaseSpec{big.Workload[0]}
	if small.Workload[0].Params, err = json.Marshal(params); err != nil {
		t.Fatal(err)
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	bigAllocs := testing.AllocsPerRun(50, func() { _ = big.Validate() })
	smallAllocs := testing.AllocsPerRun(50, func() { _ = small.Validate() })
	if bigAllocs > smallAllocs {
		t.Errorf("Validate allocates %v on the 500/200 fabric, %v on the default-shaped one", bigAllocs, smallAllocs)
	}
}

// FuzzSpecParse drives the strict spec parser with hostile input: it must
// never panic, and every spec it accepts must canonicalize to bytes that
// parse again to the same content hash and the same workload.
func FuzzSpecParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped scenarios: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(negDelaySpec))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("accepted spec does not hash: %v", err)
		}
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h2 != h {
			t.Fatalf("canonical form %s hashes to %s, the original to %s", canon, h2, h)
		}
		// the same hash must mean the same experiment: the generators
		// the two forms decode to agree field for field (both parsed, so
		// neither build can fail)
		pa, _ := s.BuildWorkload()
		pb, _ := back.BuildWorkload()
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("canonical form %s decodes to a different workload", canon)
		}
	})
}
