// Package tcp implements a TCP Reno sender over the packet simulator. It is
// the rate-control half of the paper's RandTCP baseline: "existing schemes
// ... rely on the transmission control protocol (TCP) to control the rates
// of the senders", and the paper attributes RandTCP's
// poor average file completion time and throughput fluctuation to exactly
// this loss-driven behaviour.
//
// The model follows NS2's Reno agent closely enough for the comparison to
// be meaningful: slow start, congestion avoidance, triple-duplicate-ACK
// fast retransmit with Reno fast recovery, an RFC 6298-style retransmission
// timer with exponential backoff, and per-packet cumulative ACKs from the
// receiver both transports share (transport.Conn). Reno times its RTT from
// its own send record, so it ignores the send time an ACK echoes.
package tcp

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config tunes the Reno state machine.
type Config struct {
	// InitialCwnd in segments (RFC 5681 allows up to 4; NS2 default 1,
	// modern stacks 10). Default 2.
	InitialCwnd float64
	// InitialSsthresh in segments. Default 64 (NS2's default window).
	InitialSsthresh float64
	// MinRTO floors the retransmission timer. NS2 defaults to 1s; for
	// datacenter RTTs that is catastrophic for short flows either way —
	// we default to 200 ms (the classic kernel floor).
	MinRTO float64
	// MaxCwnd caps the window in segments (receiver window stand-in).
	MaxCwnd float64
}

// DefaultConfig mirrors a classic Reno stack.
func DefaultConfig() Config {
	return Config{InitialCwnd: 2, InitialSsthresh: 64, MinRTO: 0.2, MaxCwnd: 1 << 20}
}

// Flow is a Reno transfer: a transport.Conn and the sender's congestion
// control.
type Flow struct {
	transport.Conn

	s   *sim.Simulator
	cfg Config

	// sender state
	cwnd     float64
	ssthresh float64
	nextSeq  int64 // next segment to send for the first time
	highAck  int64 // cumulative: all segments < highAck are ACKed
	dupAcks  int
	inRecov  bool
	recover  int64 // highest seq outstanding when loss was detected

	// RTT estimation (Karn + Jacobson)
	srtt, rttvar float64
	rto          float64
	backoff      float64
	rttSeq       int64 // segment being timed; -1 when none
	rttSentAt    sim.Time
	rttValid     bool

	timer       sim.Event
	onTimeoutFn func()
}

// Start opens the transfer on m and sends the initial window.
func Start(m *transport.Mux, f *Flow, cfg Config) *Flow {
	f.Open(m, f.onAck)
	f.s = m.Net.Sim
	f.cfg = cfg
	f.cwnd = cfg.InitialCwnd
	f.ssthresh = cfg.InitialSsthresh
	f.rto = 1.0 // RFC 6298 initial
	f.backoff = 1
	f.rttSeq = -1
	f.onTimeoutFn = f.onTimeout // one closure per flow, not per re-arm
	f.pump()
	f.armTimer()
	return f
}

func (f *Flow) flight() int64 { return f.nextSeq - f.highAck }

func (f *Flow) window() int64 {
	w := int64(math.Min(f.cwnd, f.cfg.MaxCwnd))
	if w < 1 {
		w = 1
	}
	return w
}

// pump transmits as many new segments as the window allows.
func (f *Flow) pump() {
	for f.nextSeq < f.Segments() && f.flight() < f.window() {
		f.sendSeg(f.nextSeq, false)
		f.nextSeq++
	}
}

func (f *Flow) sendSeg(seq int64, isRetransmit bool) {
	if isRetransmit {
		f.Retransmits++
		if f.rttSeq == seq {
			f.rttValid = false // Karn: never time a retransmitted segment
		}
	} else if f.rttSeq < f.highAck {
		f.rttSeq = seq
		f.rttSentAt = f.s.Now()
		f.rttValid = true
	}
	f.Send(seq)
}

// onAck runs at the sender.
func (f *Flow) onAck(p *netsim.Packet) {
	ack := p.AckSeq
	switch {
	case ack > f.highAck:
		f.newAck(ack)
	case ack == f.highAck:
		f.dupAck()
	}
	if f.highAck >= f.Segments() {
		f.complete()
		return
	}
	f.pump()
}

func (f *Flow) newAck(ack int64) {
	acked := ack - f.highAck
	f.highAck = ack
	f.dupAcks = 0

	// RTT sample (Karn-valid only)
	if f.rttValid && ack > f.rttSeq {
		sample := f.s.Now() - f.rttSentAt
		f.updateRTT(sample)
		f.rttValid = false
		f.backoff = 1
	}

	if f.inRecov {
		if ack >= f.recover {
			// full recovery: deflate to ssthresh
			f.inRecov = false
			f.cwnd = f.ssthresh
		} else {
			// partial ACK: retransmit next hole immediately (NewReno-ish
			// behaviour NS2's Reno also approximates via timeouts;
			// retransmitting here keeps short flows from stalling)
			f.sendSeg(f.highAck, true)
			f.cwnd = math.Max(f.ssthresh, f.cwnd-float64(acked)+1)
		}
	} else if f.cwnd < f.ssthresh {
		f.cwnd += float64(acked) // slow start
	} else {
		f.cwnd += float64(acked) / f.cwnd // congestion avoidance
	}
	f.armTimer()
}

func (f *Flow) dupAck() {
	if f.inRecov {
		f.cwnd++ // window inflation per extra dup ACK
		return
	}
	f.dupAcks++
	if f.dupAcks == 3 {
		// fast retransmit + Reno fast recovery
		f.ssthresh = math.Max(f.flightF()/2, 2)
		f.cwnd = f.ssthresh + 3
		f.inRecov = true
		f.recover = f.nextSeq
		f.sendSeg(f.highAck, true)
		f.armTimer()
	}
}

func (f *Flow) flightF() float64 { return float64(f.flight()) }

func (f *Flow) updateRTT(sample float64) {
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		const alpha, beta = 0.125, 0.25
		f.rttvar = (1-beta)*f.rttvar + beta*math.Abs(f.srtt-sample)
		f.srtt = (1-alpha)*f.srtt + alpha*sample
	}
	f.rto = math.Max(f.srtt+4*f.rttvar, f.cfg.MinRTO)
}

func (f *Flow) armTimer() {
	f.timer.Cancel()
	if f.Done() {
		return
	}
	f.timer = f.s.After(f.rto*f.backoff, f.onTimeoutFn)
}

func (f *Flow) onTimeout() {
	if f.Done() || f.highAck >= f.Segments() {
		return
	}
	// RTO: collapse to slow start, back off the timer
	f.ssthresh = math.Max(f.flightF()/2, 2)
	f.cwnd = 1
	f.inRecov = false
	f.dupAcks = 0
	f.backoff = math.Min(f.backoff*2, 64)
	f.nextSeq = f.highAck // go-back-N from the hole
	f.sendSeg(f.highAck, true)
	f.nextSeq = f.highAck + 1
	f.armTimer()
}

func (f *Flow) complete() {
	f.timer.Cancel()
	f.Finish()
}

// Cwnd returns the current congestion window in segments (diagnostics).
func (f *Flow) Cwnd() float64 { return f.cwnd }

// RTO returns the current retransmission timeout (diagnostics).
func (f *Flow) RTO() float64 { return f.rto * f.backoff }

// SRTT returns the smoothed RTT estimate (diagnostics).
func (f *Flow) SRTT() float64 { return f.srtt }
