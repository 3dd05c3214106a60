package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// spanHeader carries "<op>/<client span ID>" from a traced client request
// to the handler wrapper, which records the server-side span under it.
const spanHeader = "X-Perfbench-Span"

// server is a service behind a loopback listener, with the HTTP client
// the closed-loop clients share.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	hc   *http.Client
	tr   atomic.Pointer[tracer] // non-nil during the traced window
	done sync.WaitGroup
	tmp  string // removed at close when set

	hits, misses [2]int64 // cache counters at window start and end
}

func startServer(cfg service.Config, tmp string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(cfg), url: "http://" + ln.Addr().String(), tmp: tmp}
	s.srv = &http.Server{Handler: s.wrap(s.svc.Handler())}
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients, MaxConnsPerHost: maxClients, DisableCompression: true}}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	s.done.Wait()
	s.hc.CloseIdleConnections()
	s.svc.Close()
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

// wrap records a server-side span around every traced request.
func (s *server) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		opStr, parentStr, ok := strings.Cut(r.Header.Get(spanHeader), "/")
		op, err1 := strconv.ParseInt(opStr, 10, 64)
		parent, err2 := strconv.Atoi(parentStr)
		if tr == nil || !ok || err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		kind := "job"
		switch {
		case strings.HasSuffix(r.URL.Path, "/result"):
			kind = "result"
		case strings.HasPrefix(r.URL.Path, "/v1/groups"):
			kind = "group"
		}
		sp := tr.begin("service.handler."+kind, op, parent)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// do sends one request and returns the body of a 200 response; any other
// status is an error. Under a tracer the round trip is a client span.
func (s *server) do(tr *tracer, op int64, kind, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := tr.begin("client."+kind, op, -1)
	if tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, sp))
	}
	resp, err := s.hc.Do(req)
	if err == nil {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
		}
		body = b
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return body, nil
}

// jobStatus is the part of the service's job status the checks read.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cacheHit"`
	Error    string `json:"error"`
}

// groupStatus is the part of the service's group status the checks read.
type groupStatus struct {
	ID        string      `json:"id"`
	State     string      `json:"state"`
	Variants  int         `json:"variants"`
	CacheHits int         `json:"cacheHits"`
	Jobs      []jobStatus `json:"jobs"`
}

// submit posts a spec to /v1/jobs?wait=true and checks that the job is
// done with the expected cache outcome.
func (s *server) submit(tr *tracer, op int64, body []byte, wantHit bool) (string, error) {
	b, err := s.do(tr, op, "job", http.MethodPost, "/v1/jobs?wait=true", body)
	if err != nil {
		return "", err
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return "", err
	}
	if st.State != "done" || st.CacheHit != wantHit {
		return "", fmt.Errorf("job %s: state %s, cacheHit %v, want done and %v (%s)", st.ID, st.State, st.CacheHit, wantHit, st.Error)
	}
	return st.ID, nil
}

// csvs fetches a done job's summary CSV and the given series CSVs, in the
// order resultDigest hashes them.
func (s *server) csvs(id string, kinds []string) ([][]byte, error) {
	var parts [][]byte
	for _, k := range append([]string{"summary"}, kinds...) {
		b, err := s.do(nil, -1, "result", http.MethodGet, "/v1/jobs/"+id+"/result?csv="+k, nil)
		if err != nil {
			return nil, err
		}
		parts = append(parts, b)
	}
	return parts, nil
}

// parity checks service ≡ CLI for one done job: its served CSVs must be
// byte-identical to scenario.Run plus the same encoders.
func (s *server) parity(id string, in *input) ([][]byte, error) {
	parts, err := s.csvs(id, in.kinds)
	if err != nil {
		return nil, err
	}
	if partsDigest(parts) != in.digest {
		return nil, fmt.Errorf("job %s: served CSVs differ from scenario.Run's", id)
	}
	return parts, nil
}

// cacheCounters reads the cache hit and miss counters from /metrics.
func (s *server) cacheCounters() (hits, misses int64, err error) {
	b, err := s.do(nil, -1, "metrics", http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		var dst *int64
		switch {
		case ok && name == "scda_cache_hits_total":
			dst = &hits
		case ok && name == "scda_cache_misses_total":
			dst = &misses
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(val, 10, 64); err != nil {
			return 0, 0, err
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks the cache counters")
	}
	return hits, misses, nil
}

// mark attaches tr to the handler wrapper for the window and records the
// cache counters at its boundaries; at the end it checks the window's hit
// ratio against want (1 or 0).
func (s *server) mark(start bool, tr *tracer, want float64) error {
	if start {
		s.tr.Store(tr)
	} else {
		s.tr.Store(nil)
	}
	h, m, err := s.cacheCounters()
	if err != nil {
		return err
	}
	k := 1
	if start {
		k = 0
	}
	s.hits[k], s.misses[k] = h, m
	if start {
		return nil
	}
	if r := s.hitRatio(); r != want {
		return fmt.Errorf("window cache hit ratio %v (%d hits, %d misses), want %v",
			r, s.hits[1]-s.hits[0], s.misses[1]-s.misses[0], want)
	}
	return nil
}

// hitRatio is the last window's cache hits over hits plus misses.
func (s *server) hitRatio() float64 {
	h, m := s.hits[1]-s.hits[0], s.misses[1]-s.misses[0]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// serviceLayer gathers the traced window's service metrics.
func (s *server) serviceLayer(tr *tracer) serviceLayer {
	return serviceLayer{
		jobMs:      tr.medianMs("service.handler.job", phaseWindow),
		groupMs:    tr.medianMs("service.handler.group", phaseWindow),
		resultMs:   tr.medianMs("service.handler.result", phaseWindow),
		overheadMs: tr.overheadMs(phaseWindow),
		hitRatio:   s.hitRatio(),
	}
}

// Sizes of the serve-hot inputs: hotPerProfile distinct specs per shipped
// profile, 24 jobs and 4 three-variant sweeps, so 36 cache keys, far below
// the service's 1024-entry memory cache: every submit in the window is a
// hit. hotSessions is the length of the seeded session schedule.
const (
	hotPerProfile = 4
	hotSessions   = 4096
)

// hotInput is one serve-hot spec, a job or a sweep, with the references of
// the jobs it computes (one, or one per sweep variant).
type hotInput struct {
	body  []byte
	group bool
	refs  []*input
	kinds []string // the CSVs a session fetches: summary, then each series
	csvs  [][]byte // the served CSVs by kind, checked in set-up
}

// hotInputs generates serve-hot's specs from the seed, hotPerProfile per
// shipped profile in profile order, and looks up their references.
func hotInputs(seed uint64, refs refCache) ([]*hotInput, error) {
	rng := sim.NewRNG(seed)
	var out []*hotInput
	for p, prof := range shipped {
		for k := 0; k < hotPerProfile; k++ {
			name := fmt.Sprintf("hot-%s-%d", prof.name, k)
			var s *scenario.Spec
			if prof.sweep {
				s = sweepSpec(name, rng)
			} else {
				s = servedSpec(prof.custom, name, rng)
			}
			s.Outputs.Series = append([]string(nil), prof.series...)
			in := &hotInput{body: encode(s), group: prof.sweep, kinds: append([]string{"summary"}, prof.series...)}
			variants := []*scenario.Spec{s}
			if prof.sweep {
				var err error
				if variants, err = s.Expand(); err != nil {
					return nil, err
				}
			}
			for _, v := range variants {
				ref, err := refs.get(encode(v))
				if err != nil {
					return nil, fmt.Errorf("profile %d input %d: %w", p, k, err)
				}
				in.refs = append(in.refs, ref)
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// prepareHot computes the references of serve-hot's inputs into refs.
func prepareHot(seed uint64, refs refCache) error {
	_, err := hotInputs(seed, refs)
	return err
}

// hotClient is one closed-loop client's place in its current session.
type hotClient struct {
	in   *hotInput
	step int    // 0 submits; k > 0 fetches in.kinds[k-1]
	id   string // the job or group ID the session's submit returned
}

// hot is the serve-hot workload. Each client replays the session the
// repository's smoke scripts run against the service, on cached specs:
// submit a job or a sweep, then fetch its summary CSV and every series
// CSV. The sessions cycle through the shipped profiles in seeded orders.
type hot struct {
	*server
	inputs   []*hotInput
	sched    []int // session k submits inputs[sched[k%len(sched)]]
	nextSess atomic.Int64
	clients  [maxClients]hotClient
}

func setupHot(seed uint64, refs refCache) (instance, error) {
	inputs, err := hotInputs(seed, refs)
	if err != nil {
		return nil, err
	}
	s, err := startServer(service.Config{}, "")
	if err != nil {
		return nil, err
	}
	h := &hot{server: s, inputs: inputs}
	if err := h.warm(); err != nil {
		s.close()
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0x6a09)
	for len(h.sched) < hotSessions {
		for _, p := range rng.Perm(len(shipped)) {
			h.sched = append(h.sched, p*hotPerProfile+rng.Intn(hotPerProfile))
		}
	}
	return h, nil
}

// warm computes every input once through the service, checks service ≡
// CLI for each job and sweep variant, and keeps the served CSVs, which the
// window's fetches must repeat. A sweep's CSV of a kind must be its
// variants' CSVs of that kind concatenated in expansion order.
func (h *hot) warm() error {
	for _, in := range h.inputs {
		if !in.group {
			id, err := h.submit(nil, -1, in.body, false)
			if err != nil {
				return err
			}
			if in.csvs, err = h.parity(id, in.refs[0]); err != nil {
				return err
			}
			continue
		}
		st, err := h.group(nil, -1, in, false)
		if err != nil {
			return err
		}
		want := make([][]byte, len(in.kinds))
		for i, js := range st.Jobs {
			parts, err := h.parity(js.ID, in.refs[i])
			if err != nil {
				return err
			}
			for k := range want {
				want[k] = append(want[k], parts[k]...)
			}
		}
		for k, kind := range in.kinds {
			b, err := h.do(nil, -1, "result", http.MethodGet, "/v1/groups/"+st.ID+"/result?csv="+kind, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, want[k]) {
				return fmt.Errorf("group %s: %s CSV is not its variants' CSVs concatenated", st.ID, kind)
			}
			in.csvs = append(in.csvs, b)
		}
	}
	return nil
}

// group posts a sweep to /v1/groups?wait=true and checks it is done with
// every variant a cache hit (or, in set-up, none).
func (h *hot) group(tr *tracer, op int64, in *hotInput, wantHits bool) (groupStatus, error) {
	var st groupStatus
	b, err := h.do(tr, op, "group", http.MethodPost, "/v1/groups?wait=true", in.body)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, err
	}
	want := 0
	if wantHits {
		want = len(in.refs)
	}
	if st.State != "done" || st.Variants != len(in.refs) || len(st.Jobs) != len(in.refs) || st.CacheHits != want {
		return st, fmt.Errorf("group %s: state %s, %d variants, %d cache hits; want done, %d, %d", st.ID, st.State, st.Variants, st.CacheHits, len(in.refs), want)
	}
	return st, nil
}

func (h *hot) op(c, i int, tr *tracer) error {
	cl := &h.clients[c]
	if cl.step == 0 {
		cl.in = h.inputs[h.sched[int(h.nextSess.Add(1)-1)%len(h.sched)]]
	}
	err := h.request(cl, int64(i), tr)
	cl.step++
	if err != nil || cl.step > len(cl.in.kinds) {
		cl.step = 0
	}
	return err
}

// request sends the client's next request of its session and checks it.
func (h *hot) request(cl *hotClient, op int64, tr *tracer) error {
	in := cl.in
	var err error
	switch {
	case cl.step == 0 && in.group:
		var st groupStatus
		st, err = h.group(tr, op, in, true)
		cl.id = st.ID
		return err
	case cl.step == 0:
		cl.id, err = h.submit(tr, op, in.body, true)
		return err
	}
	path := "/v1/jobs/"
	if in.group {
		path = "/v1/groups/"
	}
	kind := in.kinds[cl.step-1]
	b, err := h.do(tr, op, "result", http.MethodGet, path+cl.id+"/result?csv="+kind, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, in.csvs[cl.step-1]) {
		return fmt.Errorf("%s%s: %s CSV differs from set-up", path, cl.id, kind)
	}
	return nil
}

func (h *hot) window(start bool, tr *tracer) error { return h.mark(start, tr, 1) }

// refInputs lists every distinct job spec the service computed: jobs and
// sweep variants.
func (h *hot) refInputs() []*input {
	var all []*input
	for _, in := range h.inputs {
		all = append(all, in.refs...)
	}
	return all
}

func (h *hot) countPass(tr *tracer) (counts, error) { return countInputs(tr, h.refInputs()) }

// bodies lists the job specs a session submits to /v1/jobs.
func (h *hot) bodies() []*input {
	var jobs []*input
	for _, in := range h.inputs {
		if !in.group {
			jobs = append(jobs, in.refs[0])
		}
	}
	return jobs
}

func (h *hot) finish(tr *tracer, m *metrics) error {
	if tr != nil {
		addLayerMetrics(m, tr, phaseCount, h.serviceLayer(tr))
	}
	return nil
}

// Sizes of the serve-cold service: its job ledger, memory cache and disk
// cache are bounded at coldBound entries and filled in set-up, so the
// window runs with every ledger already at its bound.
const (
	coldBound  = 256
	coldFill   = coldBound + 64
	coldSample = 8  // window ops re-checked against scenario.Run
	coldPool   = 64 // the sample is drawn from the window's last coldPool ops
)

// cold is the serve-cold workload: every op submits a spec never seen
// before, so each misses the cache, computes, renders, and writes the
// disk cache and the journal.
type cold struct {
	*server
	seed  uint64
	count []*input // the count pass's seeded sample of op specs

	mu  sync.Mutex
	ids map[int]string // job ID per op index of the last window
}

func setupCold(seed uint64, _ refCache) (instance, error) {
	tmp, err := os.MkdirTemp("", "perfbench-cold-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		CacheDir: filepath.Join(tmp, "cache"), JournalDir: filepath.Join(tmp, "journal"), SLO: 2 * time.Second,
		JobHistory: coldBound, CacheEntries: coldBound, CacheMaxEntries: coldBound,
	}
	s, err := startServer(cfg, tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	c := &cold{server: s, seed: seed}
	var wg sync.WaitGroup
	workers := min(maxClients, runtime.NumCPU())
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < coldFill && errs[w] == nil; k += workers {
				_, errs[w] = c.submit(nil, -1, c.body(-1-k), false)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, fmt.Errorf("filling the ledgers: %w", err)
		}
	}
	return c, nil
}

// body generates op i's spec; negative indices are set-up fill specs.
func (c *cold) body(i int) []byte {
	return encode(servedSpec(false, "cold", sim.NewRNG(c.seed).Split(uint64(i))))
}

func (c *cold) op(_, i int, tr *tracer) error {
	id, err := c.submit(tr, int64(i), c.body(i), false)
	if err == nil {
		c.mu.Lock()
		c.ids[i] = id
		c.mu.Unlock()
	}
	return err
}

func (c *cold) window(start bool, tr *tracer) error {
	if start {
		c.ids = map[int]string{}
	}
	return c.mark(start, tr, 0)
}

// countPass replays a seeded sample of coldSample of the first coldPool op
// specs, the same for every run of a seed, so their exact counts can be
// compared across runs.
func (c *cold) countPass(tr *tracer) (counts, error) {
	if c.count == nil {
		rng := sim.NewRNG(c.seed ^ 0x5a5a)
		for _, i := range rng.Perm(coldPool)[:coldSample] {
			in, err := newInput(c.body(i))
			if err != nil {
				return counts{}, err
			}
			c.count = append(c.count, in)
		}
	}
	return countInputs(tr, c.count)
}

func (c *cold) bodies() []*input { return c.count }

// finish checks service ≡ CLI on the window's own output: a seeded sample
// of the window's last coldPool ops, whose jobs are still in the ledger,
// has each job's served CSVs, fetched by the ID the op recorded, compared
// with scenario.Run of the op's spec.
func (c *cold) finish(tr *tracer, m *metrics) error {
	ops := make([]int, 0, len(c.ids))
	for i := range c.ids {
		ops = append(ops, i)
	}
	if len(ops) < coldPool {
		return fmt.Errorf("only %d ops succeeded in the window; the sample needs %d", len(ops), coldPool)
	}
	sort.Ints(ops)
	ops = ops[len(ops)-coldPool:]
	rng := sim.NewRNG(c.seed ^ 0xa5a5)
	for _, k := range rng.Perm(coldPool)[:coldSample] {
		ref, err := newInput(c.body(ops[k]))
		if err != nil {
			return err
		}
		if _, err := c.parity(c.ids[ops[k]], ref); err != nil {
			return fmt.Errorf("op %d: %w", ops[k], err)
		}
	}
	if tr != nil {
		addLayerMetrics(m, tr, phaseCount, c.serviceLayer(tr))
	}
	return nil
}
