package service

// Coordinator mode: the distributed half of scda-serve. N peers started
// with the same -peers list form a static rendezvous-hash ring
// (internal/ring) keyed by the canonical scenario hash — the same
// content address the result cache uses — so the fleet behaves as one
// cache with no coordination protocol beyond single-hop HTTP forwards:
//
//   - POST /v1/jobs on any peer routes by spec hash: local execution on
//     ownership, one forward to the live owner otherwise, and degraded
//     local execution when the owner is down (available, never wrong —
//     runs are deterministic everywhere).
//   - Job and group IDs carry the minting peer's node index ("n2-j000007"),
//     so status/result/events/cancel requests for a remote job are
//     transparently proxied from any peer to its owner.
//   - The X-Scda-Forwarded header is the loop guard: a forwarded request
//     is never forwarded again. A peer that receives one for a key it
//     does not own answers 502 — peers disagreeing on ownership is a
//     static misconfiguration, not something to route around.
//   - Group expansion fans variants across the ring: each child job is
//     local to the entry peer, but its computation executes on the
//     variant's owner (remoteExecute) so fleet-wide each spec is
//     computed once, wherever it is submitted.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/ring"
	"repro/internal/scenario"
)

// forwardedHeader marks a request that already crossed one peer hop.
// Its value is the forwarding peer's URL (diagnostic); its presence is
// the single-hop guarantee — no request is ever forwarded twice.
const forwardedHeader = "X-Scda-Forwarded"

// defaultProbeInterval is the background health-probe period when the
// config leaves ProbeInterval zero.
const defaultProbeInterval = 2 * time.Second

// probeTimeout bounds one /readyz health probe; a peer slower than this
// is as good as down for routing purposes.
const probeTimeout = time.Second

// setupRing wires coordinator mode when the config names a fleet: the
// rendezvous ring, the /readyz health prober, the proxying HTTP client,
// and the node prefix on job and group IDs. A nil return of everything
// (single-node mode) is the default. Invalid ring config (self missing
// from the peer list, empty URLs) panics: it is a static
// misconfiguration that must stop the process at start — cmd/scda-serve
// validates first and fails with a polite message.
func (s *Service) setupRing(cfg Config) {
	if cfg.Self == "" && len(cfg.Peers) == 0 {
		return
	}
	rg, err := ring.New(cfg.Self, cfg.Peers)
	if err != nil {
		panic(err)
	}
	s.ring = rg
	s.idPrefix = fmt.Sprintf("n%d-", rg.SelfIndex())
	// No client-level timeout: forwarded ?wait=true submissions and
	// proxied NDJSON event streams are legitimately long-lived; every
	// call is bounded by its request context instead.
	s.ringHTTP = &http.Client{}
	probe := &http.Client{Timeout: probeTimeout}
	s.prober = ring.NewProber(rg, func(ctx context.Context, peer string) bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
		if err != nil {
			return false
		}
		resp, err := probe.Do(req)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if cfg.ProbeInterval >= 0 {
		iv := cfg.ProbeInterval
		if iv == 0 {
			iv = defaultProbeInterval
		}
		s.prober.Start(iv)
	}
}

// Ring returns the placement ring in coordinator mode, nil single-node.
func (s *Service) Ring() *ring.Ring { return s.ring }

// ProbePeers runs one synchronous health-probe round over every peer;
// a no-op single-node. The deterministic alternative to waiting out the
// background probe interval — tests and operators drive health
// transitions with it.
func (s *Service) ProbePeers(ctx context.Context) {
	if s.prober != nil {
		s.prober.CheckOnce(ctx)
	}
}

// PeerHealth returns per-peer health snapshots in ring order, nil
// single-node.
func (s *Service) PeerHealth() []ring.PeerHealth {
	if s.prober == nil {
		return nil
	}
	return s.prober.Snapshot()
}

// splitNodeID parses an ID minted by a ring peer ("n3-j000042" → node
// 3); ok is false for bare single-node IDs and foreign formats.
func splitNodeID(id string) (node int, ok bool) {
	if len(id) < 4 || id[0] != 'n' {
		return 0, false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// maxJobSeq bounds the sequence numbers jobSeq accepts. No ledger mints
// 1<<53 IDs, so a journal file named past it is foreign, and seeding the
// counter from it would wrap the next ID negative.
const maxJobSeq = 1 << 53

// jobSeq extracts the numeric sequence from a job ID ("j000007", or the
// ring-prefixed "n2-j000007"), for seeding the job ledger's ID counter
// past journaled IDs; ok is false for foreign formats and for sequence
// numbers at or above maxJobSeq.
func jobSeq(id string) (int, bool) {
	i := strings.LastIndexByte(id, 'j')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n >= maxJobSeq {
		return 0, false
	}
	return n, true
}

// routeRemote resolves whether the job or group ID belongs to another
// ring peer; peer is that peer's URL when remote is true. Single-node
// IDs, this peer's own IDs, and out-of-range node indices (a different
// fleet's ID — the local lookup will 404 honestly) all stay local.
func (s *Service) routeRemote(id string) (peer string, remote bool) {
	if s.ring == nil {
		return "", false
	}
	n, ok := splitNodeID(id)
	if !ok || n == s.ring.SelfIndex() {
		return "", false
	}
	p, ok := s.ring.Peer(n)
	if !ok {
		return "", false
	}
	return p, true
}

// proxyToPeer transparently relays a status/result/events/cancel
// request to the peer that minted the resource's ID, streaming the
// response back (per-chunk flushes keep proxied NDJSON event streams
// live). A request that already crossed a hop is refused with 502 — the
// single-hop guard — because two peers disagreeing about an ID's home
// is a misconfigured fleet, and hot-potato routing would loop forever.
func (s *Service) proxyToPeer(w http.ResponseWriter, r *http.Request, peer string) {
	if r.Header.Get(forwardedHeader) != "" {
		s.met.ringLoops.Add(1)
		httpError(w, http.StatusBadGateway,
			"ring: request for %s already crossed a peer hop; peers disagree on ownership (inconsistent -peers lists?)", r.URL.Path)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, peer+r.URL.RequestURI(), r.Body)
	if err != nil {
		httpError(w, http.StatusBadGateway, "ring: building proxy request for %s: %v", peer, err)
		return
	}
	req.Header.Set(forwardedHeader, s.ring.Self())
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := s.ringHTTP.Do(req)
	if err != nil {
		s.prober.ReportFailure(peer)
		httpError(w, http.StatusBadGateway, "ring: peer %s unreachable: %v", peer, err)
		return
	}
	defer resp.Body.Close()
	s.prober.ReportSuccess(peer)
	s.met.ringProxied.Add(1)
	relayResponse(w, resp)
}

// relayResponse copies a peer's response to the client: status, the
// headers that matter, then the body in flushed chunks. Each chunk
// extends the connection's write deadline the same way the local NDJSON
// streamer does, so a proxied event stream is not cut by WriteTimeout.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Content-Length", "Location", "Retry-After", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			rc.SetWriteDeadline(time.Now().Add(streamWriteSlack))
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// routeSubmit is the coordinator-mode half of POST /v1/jobs, run once
// acceptJob has parsed the spec: the spec hash is the route, after which
// exactly one of three things happens — local execution on ownership, a
// single-hop forward to the live owner, or degraded local fallback when
// the owner is down or unreachable mid-forward. Forwarded requests are
// never forwarded again: a forwarded spec this peer does not own answers
// 502. true means execute locally, admission passed; false means the
// response is written.
func (s *Service) routeSubmit(w http.ResponseWriter, r *http.Request, spec *scenario.Spec, body []byte, priority int) bool {
	hash, err := spec.Hash()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	owner := s.ring.Owner(hash)
	switch {
	case owner == s.ring.Self():
		// Local execution.
	case r.Header.Get(forwardedHeader) != "":
		s.met.ringLoops.Add(1)
		httpError(w, http.StatusBadGateway,
			"ring: forwarded spec %s is owned by %s, not this peer %s; peers disagree on ownership (inconsistent -peers lists?)",
			hash, owner, s.ring.Self())
		return false
	case s.prober.Up(owner):
		s.met.ringForwards.Add(1)
		if s.forwardSubmit(w, r, owner, body) {
			return false
		}
		// The owner died between the health check and the forward;
		// nothing was written, the body is in hand — degrade to local.
		s.met.ringFallbacks.Add(1)
	default:
		s.met.ringFallbacks.Add(1)
	}
	return s.admit(w, priority, 1)
}

// forwardSubmit relays a submission to the owning peer and streams its
// response back verbatim — the client sees the owner's job, Location
// header and all, so every later request routes by the ID's node
// prefix. A false return means the peer could not be reached and
// nothing was written: the caller still owns the response and falls
// back to local execution.
func (s *Service) forwardSubmit(w http.ResponseWriter, r *http.Request, peer string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, peer+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set(forwardedHeader, s.ring.Self())
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ringHTTP.Do(req)
	if err != nil {
		s.prober.ReportFailure(peer)
		return false
	}
	defer resp.Body.Close()
	s.prober.ReportSuccess(peer)
	relayResponse(w, resp)
	return true
}

// tryRemoteExecute attempts to satisfy a locally queued job whose spec
// is owned by another live peer by executing it there — the path group
// children (and programmatic submissions) take, so fleet-wide each spec
// computes once wherever it enters. ok=false means compute locally:
// single-node mode, self-owned keys, a downed owner, or any remote
// error (degraded but available, never wrong — the local run is
// byte-identical by determinism).
func (s *Service) tryRemoteExecute(ctx context.Context, j *Job) (*artifacts, bool) {
	if s.ring == nil || j.hash == "" {
		return nil, false
	}
	owner := s.ring.Owner(j.hash)
	if owner == s.ring.Self() {
		return nil, false
	}
	if !s.prober.Up(owner) {
		s.met.ringFallbacks.Add(1)
		return nil, false
	}
	a, err := s.remoteExecute(ctx, owner, j)
	if err != nil {
		// A cancelled context is not degradation — the local path will
		// observe the same cancel immediately.
		if ctx.Err() == nil {
			s.met.ringFallbacks.Add(1)
		}
		return nil, false
	}
	s.met.ringRemote.Add(1)
	return a, true
}

// remoteExecute runs j's spec on the owning peer: one forwarded
// ?wait=true submission (the owner's queue, cache and singleflight
// apply as if the client had hit it directly), then a bulk artifact
// fetch — the bytes served locally afterwards are the owner's bytes,
// verbatim.
func (s *Service) remoteExecute(ctx context.Context, peer string, j *Job) (*artifacts, error) {
	body, err := j.Spec.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	q := url.Values{"wait": {"true"}}
	if j.Reps > 0 {
		q.Set("reps", strconv.Itoa(j.Reps))
	}
	if j.Priority != 0 {
		q.Set("priority", strconv.Itoa(j.Priority))
	}
	if !j.Deadline.IsZero() {
		q.Set("deadline", j.Deadline.UTC().Format(time.RFC3339Nano))
	}
	st := Status{}
	b, err := s.ringDo(ctx, http.MethodPost, peer, "/v1/jobs?"+q.Encode(), body)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("ring: decoding job status from %s: %w", peer, err)
	}
	if st.State != StateDone {
		return nil, fmt.Errorf("ring: remote job %s on %s ended %s: %s", st.ID, peer, st.State, st.Error)
	}
	ab, err := s.ringDo(ctx, http.MethodGet, peer, "/v1/jobs/"+st.ID+"/artifacts", nil)
	if err != nil {
		return nil, err
	}
	var files map[string][]byte
	if err := json.Unmarshal(ab, &files); err != nil {
		return nil, fmt.Errorf("ring: decoding artifacts from %s: %w", peer, err)
	}
	if _, ok := files[artResult]; !ok {
		return nil, fmt.Errorf("ring: artifact set from %s lacks %s", peer, artResult)
	}
	return &artifacts{files: files}, nil
}

// ringDo performs one fleet-internal HTTP exchange: forwarded header
// set, full body read, non-2xx turned into an error carrying the
// service's error envelope, and the peer's health updated from the
// outcome.
func (s *Service) ringDo(ctx context.Context, method, peer, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(forwardedHeader, s.ring.Self())
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.ringHTTP.Do(req)
	if err != nil {
		s.prober.ReportFailure(peer)
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.prober.ReportFailure(peer)
		return nil, err
	}
	s.prober.ReportSuccess(peer)
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg := strings.TrimSpace(string(b))
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &env) == nil && env.Error != "" {
			msg = env.Error
		}
		return nil, fmt.Errorf("ring: peer %s answered %d: %s", peer, resp.StatusCode, msg)
	}
	return b, nil
}
