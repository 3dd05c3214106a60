package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/scenario"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs                submit a scenario spec (the body is the
//	                               scenario JSON; query: reps, priority,
//	                               wait=true to block until terminal)
//	GET    /v1/jobs                list job statuses in submission order
//	GET    /v1/jobs/{id}           one job's status
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/result    the completed result: JSON by default,
//	                               ?csv=summary|throughput|fct-cdf|afct for
//	                               the CLI's byte-identical CSVs
//	GET    /v1/jobs/{id}/events    NDJSON progress stream: full replay,
//	                               then live until the job terminates
//	POST   /v1/groups              submit a spec *with* a sweep block (or a
//	                               JSON array of specs) as one job group;
//	                               same query knobs as /v1/jobs
//	GET    /v1/groups              list group statuses in submission order
//	GET    /v1/groups/{id}         aggregate status + per-variant states
//	DELETE /v1/groups/{id}         cancel the group; fans out to children
//	GET    /v1/groups/{id}/result  all-variants-done result: JSON by
//	                               default, ?csv=... for the per-variant
//	                               CSVs concatenated in expansion order —
//	                               byte-identical to the files
//	                               `scda-bench -scenario-dir` writes
//	GET    /v1/groups/{id}/events  NDJSON group lifecycle stream
//	POST   /v1/searches            submit a spec *with* a search block: the
//	                               service compiles it into an adaptive
//	                               optimization and drives rounds of
//	                               variants through the group machinery
//	                               (query: reps, priority, wait=true)
//	GET    /v1/searches            list search statuses in submission order
//	GET    /v1/searches/{id}       one search's status (rounds so far,
//	                               evaluations, cache hits, incumbent)
//	DELETE /v1/searches/{id}       cancel: no further rounds, and the
//	                               in-flight round's jobs are cancelled
//	GET    /v1/searches/{id}/result  the completed search: incumbent +
//	                               canonical incumbent spec + per-round
//	                               table (JSON), or ?csv=trajectory for
//	                               the round-by-round incumbent CSV —
//	                               both byte-identical across identical
//	                               resubmitted searches
//	GET    /v1/searches/{id}/events  NDJSON round-by-round progress stream
//	GET    /healthz                liveness
//	GET    /readyz                 readiness: 503 while draining or while
//	                               the queue is past the latency SLO
//	GET    /metrics                Prometheus text metrics
//
// Submissions accept ?deadline= (an RFC 3339 time or a relative duration
// like "30s"): the job fails with a deadline error if it cannot complete
// in time. Under overload — when the predicted queue wait for a
// submission's priority exceeds the configured SLO — submissions are
// rejected with 429 and a Retry-After header instead of queueing
// unboundedly.
//
// Errors are JSON objects {"error": "..."} with conventional status codes
// (400 invalid spec or knob, 404 unknown job or path, 405 wrong method,
// 409 conflict with the job's or group's state, 429 shed by admission
// control).
//
// In coordinator mode (Config.Self/Peers set) the same API is served by
// every peer: job submissions route across the fleet by spec hash,
// status/result/events/cancel requests for a job or group minted
// elsewhere are transparently proxied to its home peer, and
// GET /v1/jobs/{id}/artifacts (coordinator mode only) serves a done
// job's full artifact set as base64 JSON — the fleet-internal bulk
// transfer behind remote execution. Requests that already crossed one
// peer hop (the X-Scda-Forwarded header) are never forwarded again;
// a misrouted one is answered 502.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	jobs := &route[*Job, Event]{s: s, path: "/v1/jobs", noun: "job", resultNoun: "a result",
		accept: s.acceptJob, list: func() any { return s.Jobs() }, find: s.Job,
		cancel: s.cancelJob, result: s.handleResult}
	if s.ring != nil {
		// Fleet-internal bulk transfer; not part of the single-node API.
		jobs.artifacts = s.handleArtifacts
	}
	groups := &route[*JobGroup, GroupEvent]{s: s, path: "/v1/groups", noun: "group", resultNoun: "a group result",
		accept: s.acceptGroup, list: func() any { return s.Groups() }, find: s.Group,
		cancel: s.cancelGroup, result: s.handleGroupResult}
	searches := &route[*SearchJob, SearchEvent]{s: s, path: "/v1/searches", noun: "search", resultNoun: "a search result",
		accept: s.acceptSearch, list: func() any { return s.Searches() }, find: s.Search,
		cancel: s.cancelSearch, result: s.handleSearchResult}
	mux.Handle("/v1/jobs", jobs)
	mux.Handle("/v1/jobs/", jobs)
	mux.Handle("/v1/groups", groups)
	mux.Handle("/v1/groups/", groups)
	mux.Handle("/v1/searches", searches)
	mux.Handle("/v1/searches/", searches)
	if s.chaos == nil {
		return mux
	}
	// Chaos latency wraps the API routes only: operator endpoints
	// (/healthz, /readyz, /metrics) stay honest so the harness can still
	// observe the server it is abusing.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if d := s.chaos.HandlerLatency(); d > 0 {
				select {
				case <-time.After(d):
				case <-r.Context().Done():
				}
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// resource is what a route needs of a job, group or search beyond the
// ledger's settler: its event stream and its wire view.
type resource[E any] interface {
	settler
	eventsSince(seen int) ([]E, <-chan struct{}, bool)
	wire() (id string, status any, state State)
}

// route serves one resource kind's API subtree: the collection at path
// (POST submits, GET lists) and /{id}[/result|/events|/artifacts] below
// it, with the kind's name in every error envelope. In coordinator mode
// an ID minted by another peer is proxied to it. Handler builds one route
// per kind, once, since result fetches — the hot read path — go through
// it.
type route[T resource[E], E any] struct {
	s          *Service
	path       string // the collection, e.g. "/v1/jobs"
	noun       string // the kind in error messages, e.g. "job"
	resultNoun string // what a 405 on /result calls it

	accept    func(http.ResponseWriter, *http.Request) (T, bool) // false: answered
	list      func() any
	find      func(id string) (T, bool)
	cancel    func(T) bool // false once terminal
	result    func(http.ResponseWriter, *http.Request, T)
	artifacts func(http.ResponseWriter, T) // nil: no /artifacts
}

// ServeHTTP routes one request under rt.path.
func (rt *route[T, E]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, rt.path)
	if rest == "" {
		switch r.Method {
		case http.MethodPost:
			if v, ok := rt.accept(w, r); ok {
				rt.respond(w, r, v)
			}
		case http.MethodGet:
			writeJSON(w, http.StatusOK, rt.list())
		default:
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, rt.path)
		}
		return
	}
	id, sub, _ := strings.Cut(rest[1:], "/")
	if peer, remote := rt.s.routeRemote(id); remote {
		rt.s.proxyToPeer(w, r, peer)
		return
	}
	v, ok := rt.find(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no %s %q", rt.noun, id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		_, st, _ := v.wire()
		writeJSON(w, http.StatusOK, st)
	case sub == "" && r.Method == http.MethodDelete:
		cancelled := rt.cancel(v)
		_, st, state := v.wire()
		if !cancelled {
			httpError(w, http.StatusConflict, "%s %s already %s", rt.noun, id, state)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "":
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed on a %s", r.Method, rt.noun)
	case sub == "result":
		if allowGet(w, r, rt.resultNoun) {
			rt.result(w, r, v)
		}
	case sub == "events":
		if allowGet(w, r, "an event stream") {
			streamLines(w, r, rt.s.cfg.HeartbeatInterval, rt.s.chaos, v.eventsSince)
		}
	case sub == "artifacts" && rt.artifacts != nil:
		if allowGet(w, r, "artifacts") {
			rt.artifacts(w, v)
		}
	default:
		httpError(w, http.StatusNotFound, "no resource %q under %s %s", sub, rt.noun, id)
	}
}

// respond answers an accepted submission: after an optional ?wait=true
// block until it settles, its status with a Location header — 201 for a
// fresh resource, 200 once terminal.
func (rt *route[T, E]) respond(w http.ResponseWriter, r *http.Request, v T) {
	if r.URL.Query().Get("wait") == "true" {
		select {
		case <-v.Done():
			// The wait may have outlived the server's WriteTimeout; push
			// the connection's write deadline out for the response.
			http.NewResponseController(w).SetWriteDeadline(time.Now().Add(streamWriteSlack))
		case <-r.Context().Done():
			id, _, _ := v.wire()
			httpError(w, http.StatusRequestTimeout, "client went away while waiting for %s", id)
			return
		}
	}
	id, st, state := v.wire()
	w.Header().Set("Location", rt.path+"/"+id)
	code := http.StatusCreated
	if state.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// allowGet answers 405 unless r is a GET; what names the resource.
func allowGet(w http.ResponseWriter, r *http.Request, what string) bool {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, what)
		return false
	}
	return true
}

// maxSpecBytes bounds a submitted spec body (1 MiB is orders of magnitude
// above any real spec).
const maxSpecBytes = 1 << 20

// maxGroupBytes bounds a group submission body, which may carry an
// explicit JSON array of many specs.
const maxGroupBytes = 4 << 20

// maxPriorityMagnitude bounds |?priority|: the knob orders a single
// service's queue, so magnitudes beyond this are client bugs (an absurd
// value would also survive forever in the Status wire format).
const maxPriorityMagnitude = 1 << 20

// httpError writes the JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleHealthz answers liveness probes.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz answers readiness probes: 200 while the service should
// receive traffic, 503 while draining (Close has begun) or while the
// queue is so deep that new submissions would be shed anyway — the signal
// a load balancer needs to route around an overloaded node before clients
// burn retries on 429s.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.Ready():
		httpError(w, http.StatusServiceUnavailable, "overloaded: queue depth exceeds the latency SLO")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	diskEntries, diskBytes := s.disk.stats()
	s.met.writeTo(w, s.pool.Workers(), s.cfg.JobRunners, s.CacheLen(), diskEntries, diskBytes, s.PeerHealth())
}

// submitParams parses and bounds the query knobs shared by the job, group
// and search submission endpoints. Unchecked, negative or absurd values
// would flow straight through strconv.Atoi into Submit — a negative ?reps
// silently becoming the server default, any priority magnitude accepted —
// so validation lives here at the HTTP edge, keeping the programmatic
// Submit's "<= 0 means default" contract intact for in-process callers.
// ok is false when the response has already been written.
func (s *Service) submitParams(w http.ResponseWriter, r *http.Request) (reps, priority int, deadline time.Time, ok bool) {
	q := r.URL.Query()
	reps, err := intParam(q.Get("reps"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reps: %v", err)
		return 0, 0, time.Time{}, false
	}
	if reps < 0 {
		httpError(w, http.StatusBadRequest, "reps: %d is negative (omit or use 0 for the server default)", reps)
		return 0, 0, time.Time{}, false
	}
	if reps > s.cfg.MaxReps {
		httpError(w, http.StatusBadRequest, "reps: %d exceeds the limit %d", reps, s.cfg.MaxReps)
		return 0, 0, time.Time{}, false
	}
	priority, err = intParam(q.Get("priority"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "priority: %v", err)
		return 0, 0, time.Time{}, false
	}
	if priority > maxPriorityMagnitude || priority < -maxPriorityMagnitude {
		httpError(w, http.StatusBadRequest, "priority: %d outside [%d, %d]", priority, -maxPriorityMagnitude, maxPriorityMagnitude)
		return 0, 0, time.Time{}, false
	}
	deadline, err = deadlineParam(q.Get("deadline"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "deadline: %v", err)
		return 0, 0, time.Time{}, false
	}
	return reps, priority, deadline, true
}

// deadlineParam parses the optional ?deadline= knob: a relative duration
// ("30s", "2m") resolved against now, or an absolute RFC 3339 time. A
// deadline in the past is accepted — the job simply fails fast with a
// deadline error, which is more useful to retrying clients than a 400 —
// except the zero instant, which every layer would read as no deadline.
func deadlineParam(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return time.Time{}, fmt.Errorf("duration %s is not positive", d)
		}
		return time.Now().Add(d), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("%q is neither a duration nor an RFC 3339 time", s)
	}
	if t.IsZero() {
		return time.Time{}, fmt.Errorf("%s is the zero time, which reads as no deadline", s)
	}
	return t, nil
}

// admit is the HTTP edge's admission gate for a submission of n jobs at
// the given priority. A shed submission is answered 429 with a
// Retry-After header in whole seconds (the header's unit, the contract
// the client package's backoff honors), and admit returns false.
// Programmatic Submit/SubmitGroup bypass this deliberately — shedding is
// a traffic-edge policy, not a library constraint.
func (s *Service) admit(w http.ResponseWriter, priority, n int) bool {
	retryAfter, ok := s.adm.decide(s.queue.DepthAtOrAbove(priority), n)
	if !ok {
		s.met.shedTotal.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests,
			"overloaded: estimated queue wait exceeds the %s latency SLO; retry after %s", s.cfg.SLO, retryAfter)
	}
	return ok
}

// readBody reads a submission body of at most limit bytes: an oversized
// body gets the honest 413, not a spec-syntax 400. ok is false once the
// error has been answered; what names the body in the 413.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, tooBig.Limit)
	} else {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
	}
	return nil, false
}

// acceptJob parses and submits a job spec. Single-node, admission runs
// before the body is even read: shedding exists to keep an overloaded
// server cheap, so the rejection path must not pay for parsing and hashing
// a spec it will refuse anyway. In coordinator mode the spec hash is the
// route, so routeSubmit admits after the parse. A sweep or search spec is
// rejected before it is routed anywhere.
func (s *Service) acceptJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	reps, priority, deadline, ok := s.submitParams(w, r)
	if !ok || (s.ring == nil && !s.admit(w, priority, 1)) {
		return nil, false
	}
	body, ok := readBody(w, r, maxSpecBytes, "spec")
	if !ok {
		return nil, false
	}
	spec, err := scenario.Parse(bytes.NewReader(body))
	if err == nil {
		err = concrete(spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if s.ring != nil && !s.routeSubmit(w, r, spec, body, priority) {
		return nil, false
	}
	j, err := s.SubmitWithDeadline(spec, reps, priority, deadline)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return j, true
}

// handleArtifacts serves a done job's complete artifact set as a JSON
// object of base64 file bytes — the coordinator's bulk fetch after a
// remote execution, so the fetching peer serves byte-identical results.
func (s *Service) handleArtifacts(w http.ResponseWriter, j *Job) {
	art, ok := j.Artifacts()
	if !ok {
		httpError(w, http.StatusConflict, "job %s is %s; artifacts exist only once it is done", j.ID, j.Status().State)
		return
	}
	writeJSON(w, http.StatusOK, art.files)
}

// handleResult serves the completed result document or one of its CSVs.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request, j *Job) {
	art, ok := j.Artifacts()
	if !ok {
		httpError(w, http.StatusConflict, "job %s is %s; the result exists only once it is done", j.ID, j.Status().State)
		return
	}
	name, contentType := artResult, "application/json"
	if kind := r.URL.Query().Get("csv"); kind != "" {
		name, contentType = kind+".csv", "text/csv; charset=utf-8"
	}
	b, ok := art.file(name)
	if !ok {
		httpError(w, http.StatusNotFound, "job %s has no %s artifact (have summary, %s)",
			j.ID, name, strings.Join(art.seriesKinds(), ", "))
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// heartbeatLine is the NDJSON keepalive record emitted on live streams
// after HeartbeatInterval without an event, so intermediaries and clients
// can tell a slow job from a dead connection. Heartbeats fire only while
// *waiting* for a live event, never during replay: a stream of an
// already-terminal job replays and closes without waiting, so recorded
// streams stay wall-clock-free and byte-stable.
type heartbeatLine struct {
	// Heartbeat is always true; its presence is the marker. Event lines
	// never carry the field, so consumers skip heartbeats by key.
	Heartbeat bool `json:"heartbeat"`
}

// streamWriteSlack is the per-write deadline extension on event streams.
// The server's WriteTimeout protects against dead clients, but an NDJSON
// stream legitimately outlives any fixed response timeout — so each write
// burst (and each heartbeat) pushes the connection's write deadline out by
// this much instead. A stream that emits nothing for longer falls back to
// heartbeats, which keep the deadline moving.
const streamWriteSlack = time.Minute

// streamLines drives one NDJSON event stream — replay everything emitted
// so far, then live until the source terminates or the client disconnects
// — for every resource kind. since returns the events after the first seen
// ones, the channel signalling the next change, and whether the source
// reached a terminal state. Each line is one event, flushed per write
// burst so curl shows progress as it happens.
func streamLines[E any](w http.ResponseWriter, r *http.Request, hb time.Duration, inj *chaos.Injector, since func(seen int) ([]E, <-chan struct{}, bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	rc := http.NewResponseController(w)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seen := 0
	var hbTimer *time.Timer
	defer func() {
		if hbTimer != nil {
			hbTimer.Stop()
		}
	}()
	for {
		evs, changed, terminal := since(seen)
		if len(evs) > 0 {
			if inj.DropStream() {
				// Sever the connection mid-stream the hard way — no clean
				// close, no terminal event — the failure a resilient
				// consumer must tolerate by re-reading from the start.
				panic(http.ErrAbortHandler)
			}
			rc.SetWriteDeadline(time.Now().Add(streamWriteSlack))
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					return
				}
			}
			seen += len(evs)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if terminal {
			return
		}
		if hb <= 0 {
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
			continue
		}
		if hbTimer == nil {
			hbTimer = time.NewTimer(hb)
		} else {
			hbTimer.Reset(hb)
		}
		select {
		case <-changed:
			if !hbTimer.Stop() {
				<-hbTimer.C
			}
		case <-hbTimer.C:
			rc.SetWriteDeadline(time.Now().Add(streamWriteSlack))
			if err := enc.Encode(heartbeatLine{Heartbeat: true}); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// acceptGroup parses the group body — one spec object (with or without a
// sweep block) or a JSON array of specs, each strictly parsed and
// expanded — and submits the flattened variants as one group.
func (s *Service) acceptGroup(w http.ResponseWriter, r *http.Request) (*JobGroup, bool) {
	reps, priority, deadline, ok := s.submitParams(w, r)
	if !ok {
		return nil, false
	}
	body, ok := readBody(w, r, maxGroupBytes, "group")
	if !ok {
		return nil, false
	}
	name, variants, err := parseGroupBody(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	// Group admission runs after expansion, unlike the single-job fast
	// path: the load a group carries is its full variant count, so the
	// body must be parsed to know what to charge against the SLO.
	if !s.admit(w, priority, len(variants)) {
		return nil, false
	}
	g, err := s.SubmitGroupWithDeadline(name, variants, reps, priority, deadline)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return g, true
}

// parseGroupBody turns a group submission body into a base name plus
// sweep-free variant specs: a single spec object expands its sweep (if
// any) and names the group; a JSON array strictly parses and expands each
// element, flattening in order, with the first element naming the group.
// Unlike directory runs, an array may legitimately repeat a variant —
// duplicates dedupe to one computation through the singleflight cache.
func parseGroupBody(body []byte) (string, []*scenario.Spec, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return "", nil, errors.New("empty group body")
	}
	if trimmed[0] != '[' {
		spec, err := scenario.Parse(bytes.NewReader(body))
		if err != nil {
			return "", nil, err
		}
		variants, err := spec.Expand()
		return spec.Name, variants, err
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var elems []json.RawMessage
	if err := dec.Decode(&elems); err != nil {
		return "", nil, fmt.Errorf("scenario array: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return "", nil, errors.New("trailing data after scenario array")
	}
	name := ""
	var variants []*scenario.Spec
	for i, raw := range elems {
		spec, err := scenario.Parse(bytes.NewReader(raw))
		if err != nil {
			return "", nil, fmt.Errorf("scenario array element %d: %v", i, err)
		}
		if i == 0 {
			name = spec.Name
		}
		vs, err := spec.Expand()
		if err != nil {
			return "", nil, fmt.Errorf("scenario array element %d: %v", i, err)
		}
		variants = append(variants, vs...)
	}
	return name, variants, nil
}

// groupResultWire is the JSON shape of the group result endpoint's default
// document: one entry per variant with its result document spliced in.
type groupResultWire struct {
	// ID / Name identify the group.
	ID   string `json:"id"`
	Name string `json:"name"`
	// Replicates is the per-variant replicate count.
	Replicates int `json:"replicates"`
	// Variants holds one entry per variant in expansion order.
	Variants []groupVariantWire `json:"variants"`
}

// groupVariantWire is one variant's slot in the group result document.
type groupVariantWire struct {
	// ID is the child job, Name the variant scenario, Key its cache key.
	ID   string `json:"id"`
	Name string `json:"name"`
	Key  string `json:"key"`
	// CacheHit reports whether the variant was served without
	// recomputation.
	CacheHit bool `json:"cacheHit"`
	// Result is the variant's result document (the job result endpoint's
	// default JSON).
	Result json.RawMessage `json:"result"`
}

// handleGroupResult serves the completed group: the aggregate JSON
// document by default, or — with ?csv= — the per-variant CSV artifacts of
// that kind concatenated in expansion order, which is byte-identical to
// concatenating the files `scda-bench -scenario-dir` writes for the same
// pre-expanded specs (each variant's artifact already is that file's
// bytes). Results exist only once every variant is done.
func (s *Service) handleGroupResult(w http.ResponseWriter, r *http.Request, g *JobGroup) {
	jobs, ok := g.doneJobs()
	if !ok {
		httpError(w, http.StatusConflict, "group %s is %s; the result exists only once every variant is done", g.ID, g.Status().State)
		return
	}
	kind := r.URL.Query().Get("csv")
	if kind == "" {
		doc := groupResultWire{ID: g.ID, Name: g.Name, Replicates: g.Reps, Variants: make([]groupVariantWire, 0, len(jobs))}
		for _, j := range jobs {
			art, ok := j.Artifacts()
			if !ok {
				httpError(w, http.StatusConflict, "variant %s has no artifacts", j.ID)
				return
			}
			b, _ := art.file(artResult)
			doc.Variants = append(doc.Variants, groupVariantWire{
				// TrimSpace drops the artifact's trailing newline, which is
				// not part of the JSON value being spliced.
				ID: j.ID, Name: j.Spec.Name, Key: j.Key, CacheHit: j.Status().CacheHit, Result: bytes.TrimSpace(b),
			})
		}
		writeJSON(w, http.StatusOK, doc)
		return
	}
	name := kind + ".csv"
	parts := make([][]byte, 0, len(jobs))
	total := 0
	for _, j := range jobs {
		art, ok := j.Artifacts()
		if !ok {
			httpError(w, http.StatusConflict, "variant %s has no artifacts", j.ID)
			return
		}
		b, ok := art.file(name)
		if !ok {
			httpError(w, http.StatusNotFound, "variant %s has no %s artifact (have summary, %s)",
				j.Spec.Name, name, strings.Join(art.seriesKinds(), ", "))
			return
		}
		parts = append(parts, b)
		total += len(b)
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(total))
	for _, b := range parts {
		w.Write(b)
	}
}

// intParam parses an optional integer query parameter; absent is 0.
func intParam(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(s)
}
