package netsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// eagerNet is the port in its plainest form: every transmission queues its
// transmit-complete as an event (sim.AfterArg), which clears busy, adds
// SentBytes and starts the next queued packet, and Stats and
// LinkUtilization read the counters as they stand. enqueue, startTx and
// the completion below are the Network's as they were before completions
// were reserved. A Network must deliver, drop, count and read exactly as
// this form does, whatever events it skips; TestLazyCompletionMatchesEager
// and FuzzLazyCompletion drive both over the same schedules and compare.
//
// eagerNet shares the Network's routing, packet pool and delivery, which
// the reservation does not touch, and never calls a Network method that
// settles a port.
type eagerNet struct {
	n        *Network
	txDoneFn func(any)
	arriveFn func(any)

	// emptyDone counts completions that found their port's queue empty:
	// exactly the events the Network does not spend.
	emptyDone uint64
	// doneAt is each port's latest completion time, due or past;
	// tiesBelow and tiesAbove count enqueues landing exactly on it
	// before and after the completion fired.
	doneAt               map[*linkState]sim.Time
	tiesBelow, tiesAbove int
}

func newEagerNet(s *sim.Simulator, g *topology.Graph, cfg Config) *eagerNet {
	e := &eagerNet{n: New(s, g, cfg), doneAt: make(map[*linkState]sim.Time)}
	e.txDoneFn = func(arg any) {
		ls := arg.(*linkState)
		ls.busy = false
		ls.stats.SentBytes += int64(ls.txSize)
		if ls.q.n > 0 {
			e.startTx(ls)
		} else {
			e.emptyDone++
		}
	}
	e.arriveFn = func(arg any) {
		pkt := arg.(*Packet)
		e.forward(pkt.hop, pkt)
	}
	return e
}

func (e *eagerNet) network() *Network { return e.n }
func (e *eagerNet) send(pkt *Packet)  { e.forward(pkt.Src, pkt) }

func (e *eagerNet) stats(l topology.LinkID) LinkStats { return e.n.links[l].stats }

func (e *eagerNet) utilization(l topology.LinkID, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(e.n.links[l].stats.SentBytes*8) / (e.n.links[l].link.Capacity * elapsed)
}

func (e *eagerNet) forward(at topology.NodeID, pkt *Packet) {
	if at == pkt.Dst {
		e.n.deliver(pkt)
		return
	}
	lid, err := e.n.Routes.NextLink(at, pkt.Dst, pkt.Hash)
	if err != nil {
		e.n.TotalDrops++
		e.n.recycle(pkt)
		return
	}
	e.enqueue(e.n.links[lid], pkt)
}

func (e *eagerNet) enqueue(ls *linkState, pkt *Packet) {
	if at, ok := e.doneAt[ls]; ok && at == e.n.Sim.Now() {
		if ls.busy {
			e.tiesBelow++
		} else {
			e.tiesAbove++
		}
	}
	ls.stats.ArrivedBytes += int64(pkt.Size)
	ls.stats.Packets++
	if ls.queuedB+pkt.Size > ls.limitB {
		ls.stats.Drops++
		e.n.TotalDrops++
		e.n.recycle(pkt)
		return
	}
	fidx := int32(-1)
	if ls.sjf {
		var ok bool
		fidx, ok = ls.flowIdx[pkt.Flow]
		if !ok {
			fidx = int32(len(ls.counts))
			ls.flowIdx[pkt.Flow] = fidx
			ls.counts = append(ls.counts, 0)
		}
		ls.counts[fidx]++
	}
	ls.q.push(pktRef{pkt: pkt, fidx: fidx})
	ls.queuedB += pkt.Size
	ls.stats.QueuedBytes = ls.queuedB
	if !ls.busy {
		e.startTx(ls)
	}
}

func (e *eagerNet) startTx(ls *linkState) {
	ref := ls.q.removeAt(ls.pickNext())
	pkt := ref.pkt
	ls.queuedB -= pkt.Size
	ls.stats.QueuedBytes = ls.queuedB
	ls.busy = true
	ls.txSize = pkt.Size
	pkt.hop = ls.link.To

	txTime := float64(pkt.Size*8) / ls.link.Capacity
	e.doneAt[ls] = e.n.Sim.Now() + txTime
	e.n.Sim.AfterArg(txTime, e.txDoneFn, ls)
	ls.prop.AfterArg(txTime+ls.link.Delay, e.arriveFn, pkt)
}

// lazyNet is the Network under test, through the same calls as eagerNet.
type lazyNet struct{ n *Network }

func (l lazyNet) network() *Network                  { return l.n }
func (l lazyNet) send(pkt *Packet)                   { l.n.Send(pkt) }
func (l lazyNet) stats(id topology.LinkID) LinkStats { return l.n.Stats(id) }
func (l lazyNet) utilization(id topology.LinkID, e sim.Time) float64 {
	return l.n.LinkUtilization(id, e)
}

// portNet is what a portRun drives.
type portNet interface {
	network() *Network
	send(pkt *Packet)
	stats(l topology.LinkID) LinkStats
	utilization(l topology.LinkID, elapsed sim.Time) float64
}

// The schedules run on times that are exact binary fractions: with every
// capacity a power of two and every packet a multiple of 64 bytes, each
// transmission ends on a 2^-16 s grid, and so does every step a schedule
// takes, so sends land exactly as transmissions end all the time.
const (
	gridCapacity = 1 << 23 // bits/s
	gridStep     = 1.0 / (1 << 16)
)

// portTopology builds the network a schedule runs on: 0 is pair on the
// grid, 1 the fig. 6 tree on the grid, 2 the fig. 6 tree at its default
// rates and delays. It returns the graph and the hosts that send.
func portTopology(kind int) (*topology.Graph, []topology.NodeID) {
	if kind == 0 {
		g, a, b := pair(gridCapacity, 1.0/(1<<10))
		return g, []topology.NodeID{a, b}
	}
	spec := topology.DefaultThreeTier()
	if kind == 1 {
		spec.X, spec.K, spec.CoreFactor = gridCapacity, 2, 4
		spec.DCDelay, spec.WANDelay = 1.0/(1<<10), 1.0/(1<<7)
	}
	tt, err := topology.BuildThreeTier(spec)
	if err != nil {
		panic(err)
	}
	// Two racks' servers and a few clients share the edge, aggregation
	// and core ports, so queues build on every tier.
	hosts := append(append([]topology.NodeID(nil), tt.Servers[:7]...), tt.Clients[:4]...)
	return tt.Graph, hosts
}

// portRun interprets a byte string as a packet schedule. Three header
// bytes pick the topology, the discipline and the port buffer. Top-level
// ops send a packet, send a drop-tail burst, send a packet together with
// an event timed to its transmission's end (queued before or after it, so
// its sequence number falls below or above the reservation), schedule an
// event, read a port, change a link's capacity, or cut the run with
// RunUntil above, at or below Now. Every fired event and every delivery
// reads further bytes to do the same (reads in place of cuts) or call
// Stop. The same bytes drive a Network and an eagerNet, each on its own
// simulator; each reads its own cursor, so they consume the input
// identically exactly as long as they behave identically, and the first
// divergence shows in the log.
type portRun struct {
	p     portNet
	s     *sim.Simulator
	hosts []topology.NodeID
	in    []byte
	pos   int
	pkts  int64
	log   []string
}

func newPortRun(in []byte, eager bool) *portRun {
	r := &portRun{in: in, s: sim.New()}
	g, hosts := portTopology(int(r.next() % 3))
	r.hosts = hosts
	cfg := Config{QueueBytes: 1024 * (2 + int(r.next()%14)), Discipline: FIFO}
	if r.next()&1 != 0 {
		cfg.Discipline = SmallestFlowFirst
	}
	if eager {
		r.p = newEagerNet(r.s, g, cfg)
	} else {
		r.p = lazyNet{New(r.s, g, cfg)}
	}
	n := r.p.network()
	for _, h := range hosts {
		n.Listen(h, r.delivered)
	}
	return r
}

// next returns the next input byte, 0 once the input is exhausted (0
// decodes to "no ops, no stop", so runs terminate).
func (r *portRun) next() byte {
	if r.pos >= len(r.in) {
		return 0
	}
	b := r.in[r.pos]
	r.pos++
	return b
}

// delta is a step on the grid, up to 63 grid steps.
func (r *portRun) delta() sim.Time { return sim.Time(r.next()%64) * gridStep }

// packet decodes a packet between two distinct hosts.
func (r *portRun) packet() *Packet {
	src := int(r.next()) % len(r.hosts)
	dst := (src + 1 + int(r.next())%(len(r.hosts)-1)) % len(r.hosts)
	p := r.p.network().NewPacket()
	p.Flow = FlowID(r.next() % 5)
	p.Src, p.Dst = r.hosts[src], r.hosts[dst]
	p.Size = 64 * [...]int{1, 1, 2, 3, 8, 16, 23, 24}[r.next()%8]
	p.Hash = uint64(r.next() % 4)
	p.Seq = r.pkts
	r.pkts++
	return p
}

// link picks a port on the route between two hosts.
func (r *portRun) link() topology.LinkID {
	p := r.packet()
	hop := int(r.next() % 4)
	n := r.p.network()
	lid, _ := n.Routes.NextLink(p.Src, p.Dst, p.Hash)
	for at := n.Graph.Links[lid].To; hop > 0 && at != p.Dst; hop-- {
		lid, _ = n.Routes.NextLink(at, p.Dst, p.Hash)
		at = n.Graph.Links[lid].To
	}
	n.recycle(p)
	return lid
}

// read logs every counter of one port.
func (r *portRun) read(l topology.LinkID) {
	n := r.p.network()
	elapsed := r.s.Now()
	if elapsed <= 0 {
		elapsed = 1
	}
	r.log = append(r.log, fmt.Sprintf("read %d at %v: %+v queue %v arrived %v util %v",
		l, r.s.Now(), r.p.stats(l), n.QueueBits(l), n.ArrivedBits(l), r.p.utilization(l, elapsed)))
}

// tieSend sends a packet and schedules, for the instant its transmission
// on the first hop ends if it starts at once, an event that sends another
// packet to the same port: queued before the first send when the input
// says so, after it otherwise.
func (r *portRun) tieSend() {
	p := r.packet()
	n := r.p.network()
	lid, _ := n.Routes.NextLink(p.Src, p.Dst, p.Hash)
	tx := float64(p.Size*8) / n.links[lid].link.Capacity
	src, dst, hash := p.Src, p.Dst, p.Hash
	follow := func() {
		q := n.NewPacket()
		q.Flow, q.Src, q.Dst, q.Size, q.Hash, q.Seq = 4, src, dst, 64, hash, r.pkts
		r.pkts++
		r.p.send(q)
		r.event()
	}
	below := r.next()&1 != 0
	if below {
		r.s.After(tx, follow)
	}
	r.p.send(p)
	if !below {
		r.s.After(tx, follow)
	}
}

// op runs one schedule op; inside an event, a cut reads a port instead.
func (r *portRun) op(inEvent bool) {
	switch c := r.next(); c % 8 {
	case 0, 1:
		r.p.send(r.packet())
	case 2:
		p := r.packet()
		for k := 2 + int(r.next()%8); k > 0; k-- {
			q := r.p.network().NewPacket()
			*q = *p
			q.Seq = r.pkts
			r.pkts++
			r.p.send(q)
		}
		r.p.send(p)
	case 3:
		r.tieSend()
	case 4:
		r.s.After(r.delta(), r.event)
	case 5:
		r.read(r.link())
	case 6:
		caps := [...]float64{gridCapacity / 2, gridCapacity, 2 * gridCapacity, 1e7}
		r.p.network().SetCapacity(r.link(), caps[r.next()%4])
	case 7:
		if inEvent {
			r.read(r.link())
			return
		}
		switch (c >> 3) % 3 {
		case 0:
			r.cut(r.s.Now() + r.delta())
		case 1:
			r.cut(r.s.Now())
		case 2:
			r.cut(r.s.Now() - r.delta() - gridStep)
		}
	}
}

// event is a scheduled callback: up to three ops, then maybe Stop.
func (r *portRun) event() {
	b := r.next()
	r.log = append(r.log, fmt.Sprintf("event at %v", r.s.Now()))
	for i := 0; i < int(b%4); i++ {
		r.op(true)
	}
	if b&0x40 != 0 {
		r.s.Stop()
	}
}

// delivered logs a delivery and, as a transport's ACK would, may answer.
func (r *portRun) delivered(p *Packet) {
	r.log = append(r.log, fmt.Sprintf("deliver at %v: flow %d seq %d %d->%d size %d hash %d",
		r.s.Now(), p.Flow, p.Seq, p.Src, p.Dst, p.Size, p.Hash))
	switch r.next() % 4 {
	case 1:
		q := r.p.network().NewPacket()
		q.Flow, q.Src, q.Dst, q.Size, q.Hash = p.Flow, p.Dst, p.Src, 64, p.Hash
		q.Seq = r.pkts
		r.pkts++
		r.p.send(q)
	case 2:
		r.op(true)
	}
}

func (r *portRun) cut(end sim.Time) {
	r.s.RunUntil(end)
	r.log = append(r.log, fmt.Sprintf("cut %v: now %v", end, r.s.Now()))
}

// run plays the whole input, drains the network (through any Stop), and
// reads every port.
func (r *portRun) run() []string {
	for r.pos < len(r.in) {
		r.op(false)
	}
	for r.s.Len() > 0 {
		r.s.Run()
	}
	n := r.p.network()
	for l := range n.links {
		r.read(topology.LinkID(l))
	}
	r.log = append(r.log, fmt.Sprintf("drops %d delivered %d", n.TotalDrops, n.Delivered))
	return r.log
}

// checkLazyCompletion runs in on both ports and fails on the first
// difference in deliveries, reads, drops or deliveries counted, or when
// the Network's events are not exactly the eager ones less the
// completions that found their port empty. It returns the eager run.
func checkLazyCompletion(t testing.TB, in []byte) *eagerNet {
	t.Helper()
	ref := newPortRun(in, true)
	want := ref.run()
	got := newPortRun(in, false)
	gotLog := got.run()
	for i := 0; i < len(want) && i < len(gotLog); i++ {
		if gotLog[i] != want[i] {
			t.Fatalf("input %x: step %d: the Network gives %q, the eager port %q", in, i, gotLog[i], want[i])
		}
	}
	if len(gotLog) != len(want) {
		t.Fatalf("input %x: the Network logs %d steps, the eager port %d", in, len(gotLog), len(want))
	}
	e := ref.p.(*eagerNet)
	if got.s.Processed != ref.s.Processed-e.emptyDone {
		t.Fatalf("input %x: the Network fired %d events, the eager port %d less %d empty completions",
			in, got.s.Processed, ref.s.Processed, e.emptyDone)
	}
	return e
}

// TestLazyCompletionMatchesEager drives seeded schedules through the
// Network and the eager port on pair and the fig. 6 tree (on the grid and
// at its default rates), under FIFO and SJF: sends landing exactly as a
// transmission ends, with sequence numbers below and above its
// reservation, drop-tail bursts, replies from inside deliveries, reads
// inside events, SetCapacity, RunUntil cuts and Stop. It also checks that
// the schedules land sends on both sides of such ties.
func TestLazyCompletionMatchesEager(t *testing.T) {
	rng := sim.NewRNG(25)
	for kind, name := range []string{"pair", "fig6-grid", "fig6"} {
		for _, disc := range []QueueDiscipline{FIFO, SmallestFlowFirst} {
			below, above := 0, 0
			for i := 0; i < 150; i++ {
				in := make([]byte, 16+rng.Intn(300))
				for j := range in {
					in[j] = byte(rng.Uint64())
				}
				in[0], in[2] = byte(kind), byte(disc)
				e := checkLazyCompletion(t, in)
				below += e.tiesBelow
				above += e.tiesAbove
			}
			if name != "fig6" && (below == 0 || above == 0) {
				t.Errorf("%s/%d: %d enqueues landed on a due completion, %d on one just fired; want both", name, disc, below, above)
			}
		}
	}
}

// FuzzLazyCompletion is TestLazyCompletionMatchesEager over
// fuzzer-chosen schedules.
func FuzzLazyCompletion(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 0, 1, 0, 0, 1, 3, 0, 1, 0, 0, 0})
	f.Add([]byte("ports go idle without an event and nobody can tell"))
	rng := sim.NewRNG(1)
	for i := 0; i < 6; i++ {
		in := make([]byte, 96)
		for j := range in {
			in[j] = byte(rng.Uint64())
		}
		in[0] = byte(i % 3)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkLazyCompletion(t, in) })
}

// TestReservedCompletionTies pins the tie by hand on pair: a packet sent
// by an event queued before the first transmission waits behind it, and
// one sent by an event queued after finds the port idle, exactly as when
// the completion was an event; SentBytes is exact in between.
func TestReservedCompletionTies(t *testing.T) {
	for _, below := range []bool{true, false} {
		s := sim.New()
		g, a, b := pair(gridCapacity, 0)
		n := New(s, g, DefaultConfig())
		var got []sim.Time
		n.Listen(b, func(*Packet) { got = append(got, s.Now()) })
		tx := float64(1024*8) / gridCapacity
		var sent int64 = -1
		second := func() {
			sent = n.Stats(0).SentBytes
			n.Send(&Packet{Flow: 2, Src: a, Dst: b, Size: 1024})
		}
		if below {
			s.After(tx, second)
		}
		n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1024})
		if !below {
			s.After(tx, second)
		}
		s.Run()
		// Either way the second packet starts at tx: queued behind the
		// first, or on the idle port. What differs is SentBytes at the send.
		want := []sim.Time{tx, 2 * tx}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("below %v: arrivals %v, want %v", below, got, want)
		}
		if wantSent := map[bool]int64{true: 0, false: 1024}[below]; sent != wantSent {
			t.Fatalf("below %v: SentBytes %d at the tie, want %d", below, sent, wantSent)
		}
		if st := n.Stats(0); st.SentBytes != 2048 || math.Abs(n.LinkUtilization(0, 2*tx)-1) > 0 {
			t.Fatalf("below %v: after the run %+v, utilization %v", below, st, n.LinkUtilization(0, 2*tx))
		}
	}
}
