package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/topology"
)

// newTestMapper builds a FluidMapper on the default three-tier fabric.
func newTestMapper(t *testing.T) (*topology.ThreeTier, *FluidMapper) {
	t.Helper()
	tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
	if err != nil {
		t.Fatal(err)
	}
	return tt, NewFluidMapper(tt)
}

// checkPath fails unless path is a chain of links from src to dst.
func checkPath(t *testing.T, g *topology.Graph, path []topology.LinkID, src, dst topology.NodeID) {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("empty path %d → %d", src, dst)
	}
	at := src
	for _, l := range path {
		if g.Links[l].From != at {
			t.Fatalf("path %v leaves node %d, not %d", path, g.Links[l].From, at)
		}
		at = g.Links[l].To
	}
	if at != dst {
		t.Fatalf("path %v ends at node %d, not %d", path, at, dst)
	}
}

func TestFluidMapWriteThenRead(t *testing.T) {
	tt, m := newTestMapper(t)
	reqs := []Request{
		{At: 0.5, Client: 3, Content: "a", Size: 1000, Op: Write},
		{At: 1.25, Client: 7, Content: "a", Op: Read},
	}
	flows, err := m.Map(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("%d flows, want 2", len(flows))
	}
	srv := m.server("a")
	w, r := flows[0], flows[1]
	checkPath(t, tt.Graph, w.Path, tt.Clients[3], srv)
	checkPath(t, tt.Graph, r.Path, srv, tt.Clients[7])
	if w.At != 0.5 || w.Op != Write || w.SizeBits != 8000 {
		t.Errorf("write flow %+v", w)
	}
	// the read carries the written size: the request's own Size is 0
	if r.At != 1.25 || r.Op != Read || r.SizeBits != 8000 {
		t.Errorf("read flow %+v", r)
	}
}

func TestFluidMapContentPinnedToOneServer(t *testing.T) {
	tt, m := newTestMapper(t)
	isServer := make(map[topology.NodeID]bool)
	for _, s := range tt.Servers {
		isServer[s] = true
	}
	var reqs []Request
	for c := range tt.Clients {
		reqs = append(reqs, Request{Client: c, Content: "x", Size: 1, Op: Write})
	}
	flows, err := m.Map(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	end := func(f FluidFlow) topology.NodeID { return tt.Graph.Links[f.Path[len(f.Path)-1]].To }
	srv := end(flows[0])
	if !isServer[srv] {
		t.Fatalf("content lands on node %d, not a block server", srv)
	}
	for i, f := range flows {
		if end(f) != srv {
			t.Fatalf("write %d of the same content lands on node %d, the first on %d", i, end(f), srv)
		}
	}
	// the placement is a pure function of the ID: a fresh mapper agrees,
	// and distinct IDs spread over more than one server
	_, fresh := newTestMapper(t)
	if got := fresh.server("x"); got != srv {
		t.Errorf("a fresh mapper places the content on %d, not %d", got, srv)
	}
	spread := make(map[topology.NodeID]bool)
	for i := 0; i < 100; i++ {
		spread[m.server(content.ID(fmt.Sprintf("c%d", i)))] = true
	}
	if len(spread) < 2 {
		t.Errorf("100 content IDs all land on one server")
	}
}

func TestFluidMapSkipsUnsizedTransfers(t *testing.T) {
	_, m := newTestMapper(t)
	reqs := []Request{
		{Client: 0, Content: "never-written", Op: Read},
		{Client: 1, Content: "empty", Size: 0, Op: Write},
	}
	flows, err := m.Map(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 0 || m.Skipped() != 2 {
		t.Fatalf("%d flows, %d skipped; want 0 and 2", len(flows), m.Skipped())
	}
}

// TestFluidMapPathHashIsRequestIndex: request i routes with flow hash i,
// its index in the request sequence, skipped requests included.
func TestFluidMapPathHashIsRequestIndex(t *testing.T) {
	tt, m := newTestMapper(t)
	reqs := []Request{
		{Client: 0, Content: "never-written", Op: Read},
		{Client: 2, Content: "a", Size: 10, Op: Write},
		{Client: 5, Content: "a", Op: Read},
	}
	flows, err := m.Map(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	routes := topology.ComputeRouting(tt.Graph)
	srv := m.server("a")
	for i, want := range []struct {
		src, sink topology.NodeID
		req       int
	}{
		{tt.Clients[2], srv, 1},
		{srv, tt.Clients[5], 2},
	} {
		path, err := routes.Path(want.src, want.sink, uint64(want.req))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(flows[i].Path, path) {
			t.Errorf("flow %d path %v, want Path(%d, %d, %d) = %v", i, flows[i].Path, want.src, want.sink, want.req, path)
		}
	}
}

func TestFluidMapClientOutOfRange(t *testing.T) {
	tt, m := newTestMapper(t)
	for _, c := range []int{-1, len(tt.Clients)} {
		_, err := m.Map(nil, []Request{{Client: c, Content: "a", Size: 10, Op: Write}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("client %d out of range", c)) {
			t.Errorf("client %d: error %v, want out of range", c, err)
		}
	}
}
