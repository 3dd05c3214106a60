package workload

import (
	"fmt"
	"hash/fnv"

	"repro/internal/content"
	"repro/internal/topology"
)

// FluidFlow is one request lowered onto the flow level for the fluid
// simulation backend: a sized, routed transfer with an arrival time.
type FluidFlow struct {
	// At is the arrival time in seconds.
	At float64
	// SizeBits is the transfer size in bits.
	SizeBits float64
	// Path is the routed link sequence (client→server for writes,
	// server→client for reads).
	Path []topology.LinkID
	// Op records the originating request's operation for metrics.
	Op Op
}

// FluidMapper lowers workload requests onto fluid flows over a three-tier
// topology. It stands in for the storage layer the fluid engine does not
// model: each content is pinned to one block server by a stable hash of
// its ID (so repeated reads of the same content traverse the same paths,
// like a single-replica placement), writes run client→server, reads
// server→client at the size the content was written with. The mapping is
// pure — no RNG — so a request sequence maps to the same flows on every
// call.
type FluidMapper struct {
	tt     *topology.ThreeTier
	routes *topology.Routing
	sizes  map[content.ID]int64
	// skipped counts requests that map to no flow: reads of never-written
	// content (no size to transfer) and zero-sized transfers.
	skipped int
}

// NewFluidMapper builds a mapper over the topology. Routing is computed
// once and shared across Map calls.
func NewFluidMapper(tt *topology.ThreeTier) *FluidMapper {
	return &FluidMapper{
		tt:     tt,
		routes: topology.ComputeRouting(tt.Graph),
		sizes:  make(map[content.ID]int64),
	}
}

// Skipped returns how many requests mapped to no flow so far.
func (m *FluidMapper) Skipped() int { return m.skipped }

// server pins a content to a block server by stable hash.
func (m *FluidMapper) server(id content.ID) topology.NodeID {
	h := fnv.New64a()
	h.Write([]byte(id))
	return m.tt.Servers[h.Sum64()%uint64(len(m.tt.Servers))]
}

// Map lowers requests (in arrival order) onto fluid flows, appending to
// dst and returning it. Writes record the content size for later reads;
// reads of unknown content and zero-sized transfers are skipped and
// counted. A request whose client is not in the topology's client list is
// an error. The flow's ECMP hash is its index in the request sequence, so
// path selection is deterministic and spread across equal-cost uplinks.
func (m *FluidMapper) Map(dst []FluidFlow, reqs []Request) ([]FluidFlow, error) {
	for i, req := range reqs {
		if req.Client < 0 || req.Client >= len(m.tt.Clients) {
			return dst, fmt.Errorf("workload: fluid map request %d: client %d out of range", i, req.Client)
		}
		client := m.tt.Clients[req.Client]
		srv := m.server(req.Content)
		size := req.Size
		var src, sink topology.NodeID
		if req.Op == Write {
			m.sizes[req.Content] = size
			src, sink = client, srv
		} else {
			size = m.sizes[req.Content]
			src, sink = srv, client
		}
		if size <= 0 {
			m.skipped++
			continue
		}
		path, err := m.routes.Path(src, sink, uint64(i))
		if err != nil {
			return dst, fmt.Errorf("workload: fluid map request %d: %w", i, err)
		}
		dst = append(dst, FluidFlow{
			At:       req.At,
			SizeBits: float64(size) * 8,
			Path:     path,
			Op:       req.Op,
		})
	}
	return dst, nil
}
