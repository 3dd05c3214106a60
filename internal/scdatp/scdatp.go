// Package scdatp implements SCDA's data transport: a rate-paced
// sliding-window protocol whose window is set from the explicit rates
// allocated by the RM/RA plane rather than probed by loss, per section
// VIII of the paper.
//
// Every control interval τ (section VIII-D) the sender re-reads its flow's
// allocated bottleneck rate Rⱼ from its resource monitor and sets
//
//	cwnd = Rⱼ × RTT
//
// while the receiver-side constraint (rcvw = downlink rate × RTT) is
// already folded into Rⱼ, which the allocator computes as the minimum over
// the flow's full path including both access links and the endpoint
// CPU/disk limits (eq. 4). This enforces the allocation "without changing
// routers, switches and the TCP/IP stack": it is plain window flow control.
//
// Packets are paced at the allocated rate rather than burst window-at-a-
// time, so queues stay near empty even while the allocator is converging
// after arrivals or departures. Loss is therefore rare; a cumulative-ACK
// retransmission scheme (dup-ACK retransmit plus a go-back-N RTO safety
// net, with no window reduction — the window is rate-controlled, not
// loss-controlled) handles the residue.
package scdatp

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// RateProvider supplies per-flow allocated rates; *ratealloc.Controller
// implements it.
type RateProvider interface {
	FlowRate(netsim.FlowID) float64
}

// Config tunes the transport.
type Config struct {
	// Tau is the window-refresh control interval (section VIII-D); match
	// the allocator's τ.
	Tau float64
	// InitialRTT seeds cwnd before the first measurement; the paper has
	// the endpoints obtain it "from the time stamp values in the headers".
	InitialRTT float64
	// MinRTO floors the retransmission safety-net timer.
	MinRTO float64
	// MaxWindowSegments caps the window (memory guard).
	MaxWindowSegments int64
	// WindowHeadroom multiplies the rate×RTT window so pacing, not the
	// window edge, is the normal constraint. 1.2 by default.
	WindowHeadroom float64
}

// DefaultConfig matches the fig. 6 fabric: ~100 ms worst-case RTTs.
func DefaultConfig() Config {
	return Config{Tau: 0.05, InitialRTT: 0.06, MinRTO: 0.2, MaxWindowSegments: 1 << 16, WindowHeadroom: 1.2}
}

// Flow is an SCDA transfer: a transport.Conn and the sender's rate-paced
// window.
type Flow struct {
	transport.Conn

	s     *sim.Simulator
	cfg   Config
	rates RateProvider

	nextSeq int64
	highAck int64
	dupAcks int

	srtt   float64
	window int64

	// pacing state
	nextSend sim.Time
	sendEv   sim.Event
	sendFire func()

	ticker      *sim.Ticker
	timer       sim.Event
	onTimeoutFn func()
}

// Start opens the transfer on m and starts pacing it. The flow must
// already be registered with the rate allocator so that rates.FlowRate(f.ID)
// returns its allocation.
func Start(m *transport.Mux, rates RateProvider, f *Flow, cfg Config) *Flow {
	if cfg.Tau <= 0 || cfg.InitialRTT <= 0 {
		panic("scdatp: Tau and InitialRTT must be positive")
	}
	if cfg.WindowHeadroom <= 0 {
		cfg.WindowHeadroom = 1.2
	}
	f.Open(m, f.onAck)
	s := m.Net.Sim
	f.s = s
	f.cfg = cfg
	f.rates = rates
	f.srtt = cfg.InitialRTT
	f.nextSend = s.Now()
	f.sendFire = f.firePaced // one closure per flow, not per paced send
	f.onTimeoutFn = f.onTimeout

	f.refreshWindow()
	// section VIII-D: "these two cwnd updates ... are done by the RM of
	// each BS every control interval τ"
	f.ticker = s.NewTicker(cfg.Tau, func() {
		f.refreshWindow()
		f.pump()
	})
	f.pump()
	f.armTimer()
	return f
}

// rate returns the current allocated rate, floored to keep pacing finite.
func (f *Flow) rate() float64 {
	r := f.rates.FlowRate(f.ID)
	if r < 1e3 {
		r = 1e3
	}
	return r
}

// refreshWindow sets cwnd = rate × RTT (in segments, at least 2).
func (f *Flow) refreshWindow() {
	bitsInFlight := f.rate() * f.srtt * f.cfg.WindowHeadroom
	w := int64(bitsInFlight / (8 * transport.MSS))
	if w < 2 {
		w = 2
	}
	if w > f.cfg.MaxWindowSegments {
		w = f.cfg.MaxWindowSegments
	}
	f.window = w
}

// Window returns the current window in segments (diagnostics).
func (f *Flow) Window() int64 { return f.window }

// SRTT returns the smoothed RTT estimate (diagnostics).
func (f *Flow) SRTT() float64 { return f.srtt }

// RemainingBytes returns the bytes not yet cumulatively acknowledged —
// the live job size the implicit-SJF scheduler weighs flows by.
func (f *Flow) RemainingBytes() int64 {
	rem := f.Size - f.highAck*transport.MSS
	if rem < 0 {
		rem = 0
	}
	return rem
}

func (f *Flow) flight() int64 { return f.nextSeq - f.highAck }

// pump schedules the next paced transmission if the window allows one.
func (f *Flow) pump() {
	if f.Done() || f.sendEv.Pending() {
		return
	}
	if f.nextSeq >= f.Segments() || f.flight() >= f.window {
		return
	}
	delay := f.nextSend - f.s.Now()
	if delay < 0 {
		delay = 0
	}
	f.sendEv = f.s.After(delay, f.sendFire)
}

// firePaced transmits one segment at its paced slot, then re-arms pump.
func (f *Flow) firePaced() {
	if f.Done() || f.nextSeq >= f.Segments() || f.flight() >= f.window {
		return
	}
	seq := f.nextSeq
	f.nextSeq++
	f.Send(seq)
	// pace: next transmission one serialization interval later at
	// the allocated rate
	gap := float64(transport.SegmentWire(f.Size, seq)*8) / f.rate()
	now := f.s.Now()
	if f.nextSend < now {
		f.nextSend = now
	}
	f.nextSend += gap
	f.pump()
}

// onAck takes an RTT sample from the send time the ACK echoes.
func (f *Flow) onAck(p *netsim.Packet) {
	if sample := f.s.Now() - p.SentAt; sample > 0 {
		const alpha = 0.125
		f.srtt = (1-alpha)*f.srtt + alpha*sample
	}
	switch {
	case p.AckSeq > f.highAck:
		f.highAck = p.AckSeq
		f.dupAcks = 0
		f.armTimer()
	case p.AckSeq == f.highAck:
		f.dupAcks++
		if f.dupAcks == 3 {
			f.dupAcks = 0
			f.Retransmits++
			f.Send(f.highAck) // retransmit the hole, no rate cut
		}
	}
	if f.highAck >= f.Segments() {
		f.complete()
		return
	}
	f.pump()
}

func (f *Flow) rto() float64 {
	return math.Max(2*f.srtt, f.cfg.MinRTO)
}

func (f *Flow) armTimer() {
	f.timer.Cancel()
	if f.Done() {
		return
	}
	f.timer = f.s.After(f.rto(), f.onTimeoutFn)
}

func (f *Flow) onTimeout() {
	if f.Done() {
		return
	}
	// go-back-N: rewind to the hole so pacing re-sends everything
	// outstanding (receiver deduplicates); guarantees progress even after
	// pathological multi-loss.
	f.Retransmits++
	f.nextSeq = f.highAck
	f.nextSend = f.s.Now()
	f.armTimer()
	f.pump()
}

func (f *Flow) complete() {
	f.ticker.Cancel()
	f.timer.Cancel()
	f.sendEv.Cancel()
	f.Finish()
}
