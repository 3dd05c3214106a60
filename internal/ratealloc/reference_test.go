package ratealloc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// The functions below are the control plane in its plainest form: every
// Tick recomputes every flow and every link, every Update re-runs both
// fig. 2 passes, and every minimum goes through math.Min. The controller
// and hierarchy methods must stay bit-identical to them, whatever work
// they skip; TestControlPlaneMatchesReference and FuzzControlPlane step
// both forms side by side and compare them after every step.

// refFlowRate is flowRate's reference (eq. 4).
func refFlowRate(c *Controller, f *Flow) float64 {
	r := math.Min(f.Demand, math.Min(f.SendOther, f.RecvOther))
	for _, lid := range f.Path {
		ls := c.links[lid]
		share := f.MinRate + f.Priority*ls.R
		if cap := c.Params.Alpha * ls.Capacity; share > cap {
			share = cap
		}
		if share < r {
			r = share
		}
	}
	if len(f.Path) > 0 {
		src := c.g.Links[f.Path[0]].From
		dst := c.g.Links[f.Path[len(f.Path)-1]].To
		r = math.Min(r, math.Min(c.HostOther(src), c.HostOther(dst)))
	}
	return r
}

// refFlowRateOf is FlowRate's reference.
func refFlowRateOf(c *Controller, id FlowID) float64 {
	if f, ok := c.flows[id]; ok {
		return refFlowRate(c, f)
	}
	return 0
}

// refRecomputeLink is recomputeLink's reference.
func refRecomputeLink(c *Controller, ls *LinkState) {
	q := c.reader.QueueBits(ls.ID)
	effShared := c.Params.Alpha*ls.Capacity - c.Params.Beta*q/c.Params.Tau - ls.Reserved
	if effShared < c.Params.MinRate {
		effShared = c.Params.MinRate
	}
	sShared := 0.0
	for _, f := range ls.flows {
		if share := f.Rate - f.MinRate; share > 0 {
			sShared += share
		}
	}
	if nhat := sShared / ls.R; nhat > 0 {
		ls.Nhat = nhat
		ls.R = clamp(effShared/nhat, c.Params.MinRate, c.Params.Alpha*ls.Capacity)
	} else {
		ls.R = effShared
	}
}

// refRefreshSharers is refreshSharers' reference.
func refRefreshSharers(c *Controller, path []topology.LinkID) {
	for _, lid := range path {
		for _, g := range c.links[lid].flows {
			g.Rate = refFlowRate(c, g)
		}
	}
}

// refRegister is Register routed through the reference functions.
func refRegister(c *Controller, f *Flow) error {
	if _, dup := c.flows[f.ID]; dup {
		return fmt.Errorf("ratealloc: flow %d already registered", f.ID)
	}
	if len(f.Path) == 0 {
		return fmt.Errorf("ratealloc: flow %d has empty path", f.ID)
	}
	if f.Priority <= 0 {
		f.Priority = 1
	}
	if f.Demand <= 0 {
		f.Demand = math.Inf(1)
	}
	if f.SendOther <= 0 {
		f.SendOther = math.Inf(1)
	}
	if f.RecvOther <= 0 {
		f.RecvOther = math.Inf(1)
	}
	c.flows[f.ID] = f
	for _, lid := range f.Path {
		ls := c.links[lid]
		ls.addFlow(f)
		ls.Reserved += f.MinRate
	}
	f.Rate = refFlowRate(c, f)
	for _, lid := range f.Path {
		refRecomputeLink(c, c.links[lid])
	}
	refRefreshSharers(c, f.Path)
	return nil
}

// refUnregister is Unregister routed through the reference functions.
func refUnregister(c *Controller, id FlowID) {
	f, ok := c.flows[id]
	if !ok {
		return
	}
	delete(c.flows, id)
	for _, lid := range f.Path {
		ls := c.links[lid]
		ls.removeFlow(id)
		ls.Reserved -= f.MinRate
		refRecomputeLink(c, ls)
	}
	refRefreshSharers(c, f.Path)
}

// refTick is Tick's reference: every flow, then every link, every interval.
func refTick(c *Controller, now float64) {
	c.Ticks++
	for _, f := range c.flows {
		f.Rate = refFlowRate(c, f)
		c.ControlMessages++
	}
	for _, ls := range c.links {
		q := c.reader.QueueBits(ls.ID)
		capRaw := c.Params.Alpha*ls.Capacity - c.Params.Beta*q/c.Params.Tau
		effShared := capRaw - ls.Reserved
		if effShared < c.Params.MinRate {
			effShared = c.Params.MinRate
		}
		sTotal := 0.0
		switch c.Params.Mode {
		case Full:
			sShared := 0.0
			for _, f := range ls.flows {
				sTotal += f.Rate
				if share := f.Rate - f.MinRate; share > 0 {
					sShared += share
				}
			}
			ls.S = sTotal
			ls.Nhat = sShared / ls.R
			if ls.Nhat <= 0 {
				ls.R = effShared
			} else {
				ls.R = clamp(effShared/ls.Nhat, c.Params.MinRate, c.Params.Alpha*ls.Capacity)
			}
		case Simplified:
			arrived := c.reader.ArrivedBits(ls.ID)
			lbits := arrived - ls.lastArrived
			ls.lastArrived = arrived
			lambda := lbits / c.Params.Tau
			sTotal = lambda
			ls.S = lambda
			if lambda <= 0 {
				ls.R = effShared
			} else {
				ls.Nhat = lambda / ls.R
				ls.R = clamp(ls.R*math.Sqrt(effShared/lambda), c.Params.MinRate, c.Params.Alpha*ls.Capacity)
			}
		}
		breach := len(ls.flows) > 0 &&
			(sTotal > capRaw*violationTolerance || capRaw-ls.Reserved <= c.Params.MinRate)
		wasViolated := ls.Violated
		switch {
		case breach && ls.pendingViolation:
			ls.Violated = true
		case breach:
			ls.pendingViolation = true
		default:
			ls.pendingViolation = false
			ls.Violated = false
		}
		if ls.Violated && !wasViolated {
			c.Violations++
			if c.OnViolation != nil {
				c.OnViolation(Violation{Link: ls.ID, S: sTotal, CapEff: capRaw, Time: now})
			}
		}
		c.ControlMessages++
		c.ControlBytesFull += 8
		if delta := ls.S - ls.lastReportedS; delta != 0 {
			c.ControlBytesDelta += varintBytes(delta)
			ls.lastReportedS = ls.S
		}
	}
}

// refUpdate is Hierarchy.Update's reference: both passes, every time.
func refUpdate(h *Hierarchy) {
	refUpPass(h, h.root)
	for _, rm := range h.hosts {
		refDownFill(h, rm)
	}
}

func refUpPass(h *Hierarchy, ra *RA) ServerRate3 {
	best := ServerRate3{
		up:   ServerRate{Server: topology.None, Rate: math.Inf(-1)},
		down: ServerRate{Server: topology.None, Rate: math.Inf(-1)},
		min:  ServerRate{Server: topology.None, Rate: math.Inf(-1)},
	}
	for _, rm := range ra.RMs {
		other := h.ctrl.HostOther(rm.Host)
		rm.UpHat = math.Min(h.ctrl.Link(rm.UpLink).R, other)
		rm.DownHat = math.Min(h.ctrl.Link(rm.DownLink).R, other)
		if !rm.IsServer {
			continue
		}
		if rm.UpHat > best.up.Rate {
			best.up = ServerRate{rm.Host, rm.UpHat}
		}
		if rm.DownHat > best.down.Rate {
			best.down = ServerRate{rm.Host, rm.DownHat}
		}
		if m := math.Min(rm.UpHat, rm.DownHat); m > best.min.Rate {
			best.min = ServerRate{rm.Host, m}
		}
	}
	for _, ch := range ra.Children {
		sub := refUpPass(h, ch)
		if sub.up.Rate > best.up.Rate {
			best.up = sub.up
		}
		if sub.down.Rate > best.down.Rate {
			best.down = sub.down
		}
		if sub.min.Rate > best.min.Rate {
			best.min = sub.min
		}
	}
	if ra.UpLink != topology.None {
		best.up.Rate = math.Min(best.up.Rate, h.ctrl.Link(ra.UpLink).R)
		best.down.Rate = math.Min(best.down.Rate, h.ctrl.Link(ra.DownLink).R)
		bothWays := math.Min(h.ctrl.Link(ra.UpLink).R, h.ctrl.Link(ra.DownLink).R)
		best.min.Rate = math.Min(best.min.Rate, bothWays)
	}
	ra.BestUp, ra.BestDown, ra.BestMin = best.up, best.down, best.min
	return best
}

func refDownFill(h *Hierarchy, rm *RM) {
	up := rm.UpHat
	down := rm.DownHat
	level := 1
	rm.UpToLevel[level] = up
	rm.DownFromLevel[level] = down
	ra := rm.parent
	for ra != nil && ra.Parent != nil {
		up = math.Min(up, h.ctrl.Link(ra.UpLink).R)
		down = math.Min(down, h.ctrl.Link(ra.DownLink).R)
		level = ra.Parent.Level
		if level < len(rm.UpToLevel) {
			rm.UpToLevel[level] = up
			rm.DownFromLevel[level] = down
		}
		ra = ra.Parent
	}
	for l := 2; l <= h.hmax; l++ {
		if rm.UpToLevel[l] == 0 {
			rm.UpToLevel[l] = rm.UpToLevel[l-1]
		}
		if rm.DownFromLevel[l] == 0 {
			rm.DownFromLevel[l] = rm.DownFromLevel[l-1]
		}
	}
}

// planeStep names one kind of schedule step.
type planeStep int

const (
	stepRegister planeStep = iota
	stepUnregister
	stepSetCapacity
	stepSetPriority
	stepHostOtherRepeat // SetHostOther with the host's current value
	stepHostOtherNew    // SetHostOther with a fresh finite value
	stepHostOtherInf    // SetHostOther(+Inf): no endpoint limit
	stepHostOtherFailed // SetHostOther(MinRate): a failed server
	stepQueueNew
	stepQueueEarlier // a queue reading returns to one the link had before
	stepArrivalNew
	stepArrivalEarlier // an arrival counter returns to an earlier reading
	stepTick
	stepUpdate
	stepFlowRate
	numPlaneSteps
)

var planeStepNames = [numPlaneSteps]string{
	"Register", "Unregister", "SetCapacity", "SetPriority",
	"SetHostOther(repeat)", "SetHostOther(new)", "SetHostOther(+Inf)", "SetHostOther(MinRate)",
	"queue(new)", "queue(earlier)", "arrivals(new)", "arrivals(earlier)",
	"Tick", "Update", "FlowRate",
}

// planeStepWeights skews schedules toward Tick and Update, so links and
// hierarchies spend long runs with nothing changed, as in a served run
// whose arrivals have ended.
var planeStepWeights = [numPlaneSteps]int{
	stepRegister: 4, stepUnregister: 3, stepSetCapacity: 1, stepSetPriority: 1,
	stepHostOtherRepeat: 1, stepHostOtherNew: 1, stepHostOtherInf: 1, stepHostOtherFailed: 1,
	stepQueueNew: 2, stepQueueEarlier: 1, stepArrivalNew: 2, stepArrivalEarlier: 1,
	stepTick: 8, stepUpdate: 6, stepFlowRate: 2,
}

// planeSource supplies a schedule's choices: a seeded generator for the
// test, fuzzed bytes for the fuzz target.
type planeSource interface {
	// intn returns a choice in [0, n); ok is false once the source is spent.
	intn(n int) (v int, ok bool)
}

type randSource struct{ r *rand.Rand }

func (s randSource) intn(n int) (int, bool) { return s.r.Intn(n), true }

type byteSource struct{ b []byte }

func (s *byteSource) intn(n int) (int, bool) {
	if len(s.b) < 2 {
		return 0, false
	}
	v := int(binary.LittleEndian.Uint16(s.b))
	s.b = s.b[2:]
	return v % n, true
}

// planeRig holds the two controller and hierarchy pairs a schedule steps:
// real through the methods, ref through the reference functions. Both
// read one fake switch-counter source.
type planeRig struct {
	tt     *topology.ThreeTier
	routes *topology.Routing
	reader *fakeReader
	hosts  []topology.NodeID

	real, ref         *Controller
	realH, refH       *Hierarchy
	realViol, refViol []Violation

	now     float64
	nextID  FlowID
	live    []FlowID // registered flow IDs, in registration order
	qSeen   map[topology.LinkID][]float64
	aSeen   map[topology.LinkID][]float64
	counts  [numPlaneSteps]int
	stepNum int
}

func newPlaneRig(t testing.TB, mode Mode) *planeRig {
	t.Helper()
	tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Mode = mode
	rig := &planeRig{
		tt:     tt,
		routes: topology.ComputeRouting(tt.Graph),
		reader: newFakeReader(),
		nextID: 1,
		qSeen:  make(map[topology.LinkID][]float64),
		aSeen:  make(map[topology.LinkID][]float64),
	}
	rig.hosts = append(append(rig.hosts, tt.Servers...), tt.Clients...)
	servers := map[topology.NodeID]bool{}
	for _, s := range tt.Servers {
		servers[s] = true
	}
	for _, side := range []struct {
		c    **Controller
		h    **Hierarchy
		viol *[]Violation
	}{{&rig.real, &rig.realH, &rig.realViol}, {&rig.ref, &rig.refH, &rig.refViol}} {
		c, err := NewController(tt.Graph, rig.reader, p)
		if err != nil {
			t.Fatal(err)
		}
		viol := side.viol
		c.OnViolation = func(v Violation) { *viol = append(*viol, v) }
		h, err := NewHierarchy(c, tt.Graph, servers)
		if err != nil {
			t.Fatal(err)
		}
		*side.c, *side.h = c, h
	}
	// ties between subtrees go to the first child, and NewHierarchy
	// lists children in map order, so the reference tree takes the real
	// tree's order
	for _, n := range tt.Graph.Nodes {
		if ra := rig.realH.RAFor(n.ID); ra != nil {
			ref := rig.refH.RAFor(n.ID)
			for i, ch := range ra.Children {
				ref.Children[i] = rig.refH.RAFor(ch.Switch)
			}
		}
	}
	return rig
}

// pick returns one of vals.
func pick(src planeSource, vals ...float64) (float64, bool) {
	i, ok := src.intn(len(vals))
	return vals[i], ok
}

// link returns a link for a reading change: half the time one on a live
// flow's path, where readings move in a real run, else any link.
func (rig *planeRig) link(src planeSource) (topology.LinkID, bool) {
	coin, ok := src.intn(2)
	if coin == 0 && len(rig.live) > 0 {
		i, _ := src.intn(len(rig.live))
		path := rig.real.flows[rig.live[i]].Path
		j, ok := src.intn(len(path))
		return path[j], ok
	}
	i, ok2 := src.intn(len(rig.tt.Graph.Links))
	return topology.LinkID(i), ok && ok2
}

// flowID returns a live flow's ID, or now and then one never registered.
func (rig *planeRig) flowID(src planeSource) (FlowID, bool) {
	i, ok := src.intn(len(rig.live) + 1)
	if i == len(rig.live) {
		return rig.nextID + 1000, ok
	}
	return rig.live[i], ok
}

// step draws and applies one step to both pairs; ok is false once the
// source is spent, and then nothing was applied.
func (rig *planeRig) step(t testing.TB, src planeSource) (planeStep, bool) {
	t.Helper()
	total := 0
	for _, w := range planeStepWeights {
		total += w
	}
	r, ok := src.intn(total)
	if !ok {
		return 0, false
	}
	kind := planeStep(0)
	for ; r >= planeStepWeights[kind]; kind++ {
		r -= planeStepWeights[kind]
	}
	switch kind {
	case stepRegister:
		ok = rig.register(t, src)
	case stepUnregister:
		var id FlowID
		if id, ok = rig.flowID(src); ok {
			rig.real.Unregister(id)
			refUnregister(rig.ref, id)
			for i, l := range rig.live {
				if l == id {
					rig.live = append(rig.live[:i], rig.live[i+1:]...)
					break
				}
			}
		}
	case stepSetCapacity:
		i, ok1 := src.intn(len(rig.tt.Graph.Links))
		f, ok2 := pick(src, 0.5, 1, 1.5, 2, 0, -1)
		if ok = ok1 && ok2; ok {
			id := topology.LinkID(i)
			capacity := f * rig.tt.Graph.Links[id].Capacity
			rig.real.SetCapacity(id, capacity)
			rig.ref.SetCapacity(id, capacity)
		}
	case stepSetPriority:
		id, ok1 := rig.flowID(src)
		p, ok2 := pick(src, 0.5, 1, 2, 4, 0)
		if ok = ok1 && ok2; ok {
			rig.real.SetPriority(id, p)
			rig.ref.SetPriority(id, p)
		}
	case stepHostOtherRepeat, stepHostOtherNew, stepHostOtherInf, stepHostOtherFailed:
		i, ok1 := src.intn(len(rig.hosts))
		n, ok2 := src.intn(1000)
		if ok = ok1 && ok2; ok {
			h := rig.hosts[i]
			rate := rig.real.HostOther(h)
			switch kind {
			case stepHostOtherNew:
				rate = float64(n+1) * 1e6
			case stepHostOtherInf:
				rate = math.Inf(1)
			case stepHostOtherFailed:
				rate = rig.real.Params.MinRate
			}
			rig.real.SetHostOther(h, rate)
			rig.ref.SetHostOther(h, rate)
		}
	case stepQueueNew, stepQueueEarlier:
		// queues up to twice a 500 Mb/s link's τ worth, past the MinRate floor
		ok = rig.reading(src, kind == stepQueueEarlier, rig.reader.queues, rig.qSeen,
			func(old float64, n int) float64 { return []float64{0, 1e3, 8e4, 1e6, 2.5e7, float64(n) * 5e4}[n%6] })
	case stepArrivalNew, stepArrivalEarlier:
		ok = rig.reading(src, kind == stepArrivalEarlier, rig.reader.arrived, rig.aSeen,
			func(old float64, n int) float64 {
				return old + []float64{0, 1e3, 1e6, 2.5e6, 5e6, float64(n) * 1e4}[n%6]
			})
	case stepTick:
		rig.now += rig.real.Params.Tau
		rig.real.Tick(rig.now)
		refTick(rig.ref, rig.now)
	case stepUpdate:
		rig.realH.Update()
		refUpdate(rig.refH)
	case stepFlowRate:
		var id FlowID
		if id, ok = rig.flowID(src); ok {
			got, want := rig.real.FlowRate(id), refFlowRateOf(rig.ref, id)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: FlowRate(%d) = %v, reference %v", rig.stepNum, id, got, want)
			}
		}
	}
	if !ok {
		return kind, false
	}
	rig.counts[kind]++
	rig.stepNum++
	return kind, true
}

// register adds one flow on a routed path to both pairs, or now and then
// re-registers a live ID, which both must refuse.
func (rig *planeRig) register(t testing.TB, src planeSource) bool {
	t.Helper()
	a, ok1 := src.intn(len(rig.hosts))
	b, ok2 := src.intn(len(rig.hosts) - 1)
	hash, ok3 := src.intn(1 << 16)
	dup, ok4 := src.intn(8)
	prio, ok5 := pick(src, 0, 1, 2, 0.5)
	minRate, ok6 := pick(src, 0, 0, 0, 1e6, 2e7)
	demand, ok7 := pick(src, 0, 0, 5e5, 3e7)
	send, ok8 := pick(src, 0, 0, 1e7)
	recv, ok9 := pick(src, 0, 0, 2e7)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && ok9) {
		return false
	}
	if b >= a {
		b++
	}
	path, err := rig.routes.Path(rig.hosts[a], rig.hosts[b], uint64(hash))
	if err != nil {
		t.Fatal(err)
	}
	id := rig.nextID
	if dup == 0 && len(rig.live) > 0 {
		id = rig.live[hash%len(rig.live)]
	}
	mk := func() *Flow {
		return &Flow{ID: id, Path: path, Priority: prio, MinRate: minRate, Demand: demand, SendOther: send, RecvOther: recv}
	}
	errReal, errRef := rig.real.Register(mk()), refRegister(rig.ref, mk())
	if (errReal == nil) != (errRef == nil) {
		t.Fatalf("step %d: Register(%d) = %v, reference %v", rig.stepNum, id, errReal, errRef)
	}
	if errReal == nil {
		rig.live = append(rig.live, id)
		rig.nextID++
	}
	return true
}

// reading changes one link's fake counter: to next(old, n) for a new
// reading, or back to one the link showed before.
func (rig *planeRig) reading(src planeSource, earlier bool, m map[topology.LinkID]float64,
	seen map[topology.LinkID][]float64, next func(old float64, n int) float64) bool {
	l, ok1 := rig.link(src)
	n, ok2 := src.intn(1000)
	if !ok1 || !ok2 {
		return false
	}
	if earlier {
		hist := append([]float64{0}, seen[l]...)
		m[l] = hist[n%len(hist)]
		return true
	}
	m[l] = next(m[l], n)
	seen[l] = append(seen[l], m[l])
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diff returns a description of the first state in which the two pairs
// disagree, or "" when every compared value matches bit for bit.
func (rig *planeRig) diff() string {
	a, b := rig.real, rig.ref
	if a.Ticks != b.Ticks || a.Violations != b.Violations || a.ControlMessages != b.ControlMessages ||
		a.ControlBytesFull != b.ControlBytesFull || a.ControlBytesDelta != b.ControlBytesDelta {
		return fmt.Sprintf("counters: ticks %d/%d violations %d/%d messages %d/%d bytes full %d/%d delta %d/%d",
			a.Ticks, b.Ticks, a.Violations, b.Violations, a.ControlMessages, b.ControlMessages,
			a.ControlBytesFull, b.ControlBytesFull, a.ControlBytesDelta, b.ControlBytesDelta)
	}
	if fmt.Sprint(rig.realViol) != fmt.Sprint(rig.refViol) {
		return fmt.Sprintf("violations reported: %v, reference %v", rig.realViol, rig.refViol)
	}
	for i := range a.links {
		if d := diffLink(a.links[i], b.links[i]); d != "" {
			return fmt.Sprintf("link %d: %s", i, d)
		}
	}
	if len(a.flows) != len(b.flows) {
		return fmt.Sprintf("%d flows registered, reference %d", len(a.flows), len(b.flows))
	}
	for id, f := range a.flows {
		g := b.flows[id]
		if g == nil || !sameBits(f.Rate, g.Rate) || !sameBits(f.Priority, g.Priority) {
			return fmt.Sprintf("flow %d: %+v, reference %+v", id, f, g)
		}
	}
	for _, n := range rig.tt.Graph.Nodes {
		if ra, rb := rig.realH.RMFor(n.ID), rig.refH.RMFor(n.ID); ra != nil {
			if !sameBits(ra.UpHat, rb.UpHat) || !sameBits(ra.DownHat, rb.DownHat) ||
				!sameVec(ra.UpToLevel, rb.UpToLevel) || !sameVec(ra.DownFromLevel, rb.DownFromLevel) {
				return fmt.Sprintf("RM %d: up %v down %v levels %v %v, reference up %v down %v levels %v %v",
					n.ID, ra.UpHat, ra.DownHat, ra.UpToLevel, ra.DownFromLevel,
					rb.UpHat, rb.DownHat, rb.UpToLevel, rb.DownFromLevel)
			}
		}
		if ra, rb := rig.realH.RAFor(n.ID), rig.refH.RAFor(n.ID); ra != nil {
			if !sameServerRate(ra.BestUp, rb.BestUp) || !sameServerRate(ra.BestDown, rb.BestDown) ||
				!sameServerRate(ra.BestMin, rb.BestMin) {
				return fmt.Sprintf("RA %d: best %v %v %v, reference %v %v %v", n.ID,
					ra.BestUp, ra.BestDown, ra.BestMin, rb.BestUp, rb.BestDown, rb.BestMin)
			}
		}
	}
	return ""
}

// diffLink compares every field of a link's allocator state.
func diffLink(a, b *LinkState) string {
	floats := []struct {
		name string
		x, y float64
	}{
		{"Capacity", a.Capacity, b.Capacity}, {"R", a.R, b.R}, {"S", a.S, b.S},
		{"lastReportedS", a.lastReportedS, b.lastReportedS}, {"Nhat", a.Nhat, b.Nhat},
		{"Reserved", a.Reserved, b.Reserved}, {"lastArrived", a.lastArrived, b.lastArrived},
	}
	for _, f := range floats {
		if !sameBits(f.x, f.y) {
			return fmt.Sprintf("%s = %v, reference %v", f.name, f.x, f.y)
		}
	}
	if a.ID != b.ID || a.Violated != b.Violated || a.pendingViolation != b.pendingViolation {
		return fmt.Sprintf("ID %d/%d Violated %v/%v pendingViolation %v/%v",
			a.ID, b.ID, a.Violated, b.Violated, a.pendingViolation, b.pendingViolation)
	}
	if len(a.flows) != len(b.flows) {
		return fmt.Sprintf("%d flows, reference %d", len(a.flows), len(b.flows))
	}
	for i := range a.flows {
		if a.flows[i].ID != b.flows[i].ID {
			return fmt.Sprintf("flow %d at %d, reference %d", a.flows[i].ID, i, b.flows[i].ID)
		}
	}
	return ""
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameServerRate(a, b ServerRate) bool { return a.Server == b.Server && sameBits(a.Rate, b.Rate) }

// runPlaneSchedule steps a fresh rig through up to maxSteps steps of src,
// comparing the pairs after each, and returns how often each kind ran.
func runPlaneSchedule(t testing.TB, mode Mode, src planeSource, maxSteps int) [numPlaneSteps]int {
	t.Helper()
	rig := newPlaneRig(t, mode)
	for rig.stepNum < maxSteps {
		kind, ok := rig.step(t, src)
		if !ok {
			break
		}
		if d := rig.diff(); d != "" {
			t.Fatalf("mode %d, step %d (%s): %s", mode, rig.stepNum-1, planeStepNames[kind], d)
		}
	}
	return rig.counts
}

// planeMinSteps is how often every step kind must run across the seeded
// schedules of one mode.
const planeMinSteps = 100

// TestControlPlaneMatchesReference steps the controller and hierarchy
// beside their reference on the fig. 6 tree, through seeded schedules in
// both rate modes, and requires every rate, counter and aggregate to agree
// bit for bit after every step.
func TestControlPlaneMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Full, Simplified} {
		var counts [numPlaneSteps]int
		for seed := int64(1); seed <= 6; seed++ {
			got := runPlaneSchedule(t, mode, randSource{rand.New(rand.NewSource(seed))}, 1500)
			for k, n := range got {
				counts[k] += n
			}
		}
		t.Logf("mode %d step counts: %v", mode, counts)
		for k, n := range counts {
			if n < planeMinSteps {
				t.Errorf("mode %d: %s ran %d times, want at least %d", mode, planeStepNames[k], n, planeMinSteps)
			}
		}
	}
}

// FuzzControlPlane drives fuzzed schedules through the same comparison;
// the first byte picks the mode, the rest the steps.
func FuzzControlPlane(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 50, 0, 200, 0})
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := make([]byte, 2048)
		r.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mode := Full
		if len(data) > 0 && data[0]&1 == 1 {
			mode = Simplified
		}
		if len(data) > 0 {
			data = data[1:]
		}
		runPlaneSchedule(t, mode, &byteSource{data}, 4000)
	})
}
