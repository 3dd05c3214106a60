package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/search"
)

// searchSpec is testSpec plus a discrete search block: one round, two
// evaluations — the smallest real search.
const searchSpec = `{
  "version": 1,
  "name": "svc-test",
  "seed": 3,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput", "fct-cdf"]},
  "search": {"metric": "afct", "parameter": "system.rscale", "values": [1e7, 5e7]}
}`

// postSearch submits a search spec and decodes the search status.
func postSearch(t *testing.T, ts *httptest.Server, spec, query string) (SearchStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/searches"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st SearchStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return st, resp.StatusCode
}

func TestSearchEndToEndAndCacheReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobRunners: 2})

	// Before any search, the exposition carries no search families at all
	// — the byte-stability contract for services that never run one.
	if b, _ := get(t, ts.URL+"/metrics"); bytes.Contains(b, []byte("scda_search")) {
		t.Fatal("search metrics rendered before any search was submitted")
	}

	st, code := postSearch(t, ts, searchSpec, "?wait=true")
	if code != http.StatusOK {
		t.Fatalf("search submit: %d %+v", code, st)
	}
	if st.State != StateDone || st.Rounds != 1 || st.Evaluations != 2 {
		t.Fatalf("search status %+v, want done after 1 round / 2 evaluations", st)
	}
	if st.CacheHits != 0 {
		t.Fatalf("first search reported %d cache hits, want 0", st.CacheHits)
	}
	if st.Incumbent == nil || st.Strategy != "grid-refine" || st.Metric != "mean_fct_s" {
		t.Fatalf("search status %+v, want resolved strategy/metric and an incumbent", st)
	}
	if !strings.HasPrefix(st.ID, "s") {
		t.Fatalf("search ID %q", st.ID)
	}

	// The list and status endpoints agree.
	if b, code := get(t, ts.URL+"/v1/searches"); code != http.StatusOK || !bytes.Contains(b, []byte(st.ID)) {
		t.Fatalf("search list: %d %s", code, b)
	}
	if b, code := get(t, ts.URL+"/v1/searches/"+st.ID); code != http.StatusOK || !bytes.Contains(b, []byte(`"state": "done"`)) {
		t.Fatalf("search status fetch: %d %s", code, b)
	}

	// Result document: deterministic, with the incumbent's canonical spec
	// and no job IDs or cache flags anywhere.
	result1, code := get(t, ts.URL+"/v1/searches/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("search result: %d %s", code, result1)
	}
	for _, leak := range []string{`"cacheHit"`, `"id":`, `"j0`} {
		if bytes.Contains(result1, []byte(leak)) {
			t.Fatalf("result document leaks %s: %s", leak, result1)
		}
	}
	var doc struct {
		Incumbent     *struct{ Name string } `json:"incumbent"`
		IncumbentSpec json.RawMessage        `json:"incumbentSpec"`
	}
	if err := json.Unmarshal(result1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Incumbent == nil || len(doc.IncumbentSpec) == 0 {
		t.Fatalf("result lacks incumbent or its spec: %s", result1)
	}
	traj1, code := get(t, ts.URL+"/v1/searches/"+st.ID+"/result?csv=trajectory")
	if code != http.StatusOK || !bytes.HasPrefix(traj1, []byte("round,reps,evaluations,pruned,incumbent,value,objective\n")) {
		t.Fatalf("trajectory: %d %s", code, traj1)
	}
	if _, code := get(t, ts.URL+"/v1/searches/"+st.ID+"/result?csv=summary"); code != http.StatusNotFound {
		t.Fatalf("unknown search CSV kind served: %d", code)
	}

	// Event stream replay: queued, running, one round (with incumbent),
	// done — and no wall-clock anywhere.
	events, code := get(t, ts.URL+"/v1/searches/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	lines := bytes.Split(bytes.TrimSpace(events), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("event stream has %d lines, want 4: %s", len(lines), events)
	}
	if !bytes.Contains(lines[2], []byte(`"round":1`)) || !bytes.Contains(lines[2], []byte(`"incumbent"`)) {
		t.Fatalf("round event: %s", lines[2])
	}

	missesAfterFirst := metricLine(t, ts, "scda_cache_misses_total")
	if missesAfterFirst != 2 {
		t.Fatalf("misses after first search: %d, want 2", missesAfterFirst)
	}
	if rounds := metricLine(t, ts, "scda_search_rounds_total"); rounds != 1 {
		t.Fatalf("scda_search_rounds_total %d, want 1", rounds)
	}

	// Identical resubmission: a pure cache replay — zero simulation work,
	// byte-identical result and trajectory.
	st2, code := postSearch(t, ts, searchSpec, "?wait=true")
	if code != http.StatusOK || st2.State != StateDone {
		t.Fatalf("resubmit: %d %+v", code, st2)
	}
	if st2.CacheHits != st2.Evaluations || st2.Evaluations != 2 {
		t.Fatalf("replayed search: %d cache hits of %d evaluations, want all", st2.CacheHits, st2.Evaluations)
	}
	if got := metricLine(t, ts, "scda_cache_misses_total"); got != missesAfterFirst {
		t.Fatalf("replay computed fresh work: misses %d -> %d", missesAfterFirst, got)
	}
	result2, _ := get(t, ts.URL+"/v1/searches/"+st2.ID+"/result")
	if !bytes.Equal(result1, result2) {
		t.Fatalf("replayed result differs:\n%s\nvs\n%s", result1, result2)
	}
	traj2, _ := get(t, ts.URL+"/v1/searches/"+st2.ID+"/result?csv=trajectory")
	if !bytes.Equal(traj1, traj2) {
		t.Fatalf("replayed trajectory differs:\n%s\nvs\n%s", traj1, traj2)
	}

	// The incumbent's canonical spec round-trips as an ordinary job
	// submission — and is already cached.
	var spec json.RawMessage = doc.IncumbentSpec
	jst, code := submit(t, ts, string(spec), "?wait=true")
	if code != http.StatusOK || jst.State != StateDone || !jst.CacheHit {
		t.Fatalf("incumbent spec resubmission: %d %+v, want a cached done job", code, jst)
	}
}

// metricLine reads one unlabeled metric family's value from the test
// server's exposition (0 when absent).
func metricLine(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	b, code := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v int64
			if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestSearchSpecRejectedOnJobAndGroupEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	if _, code := submit(t, ts, searchSpec, ""); code != http.StatusBadRequest {
		t.Fatalf("search spec on /v1/jobs: %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/groups", "application/json", strings.NewReader(searchSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("/v1/searches")) {
		t.Fatalf("search spec on /v1/groups: %d %s, want 400 pointing at /v1/searches", resp.StatusCode, b)
	}
	// And a plain spec is still rejected on the search endpoint.
	if _, code := postSearch(t, ts, testSpec, ""); code != http.StatusBadRequest {
		t.Fatalf("plain spec on /v1/searches: %d, want 400", code)
	}
}

// TestSearchHistoryEviction: SearchHistory bounds the search ledger like
// JobHistory bounds the job ledger — once two searches have finished under
// a bound of one, the older answers 404 and the newest stays.
func TestSearchHistoryEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, SearchHistory: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		st, code := postSearch(t, ts, searchSpec, "?wait=true")
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("search %d: %d %+v", i, code, st)
		}
		ids = append(ids, st.ID)
	}
	if _, code := get(t, ts.URL+"/v1/searches/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("older search still served: %d, want 404 after eviction", code)
	}
	if _, code := get(t, ts.URL+"/v1/searches/"+ids[1]); code != http.StatusOK {
		t.Fatalf("newest search evicted: %d", code)
	}
	b, _ := get(t, ts.URL+"/v1/searches")
	var list []SearchStatus
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != ids[1] {
		t.Fatalf("search list %+v, want only %s", list, ids[1])
	}
}

// slowSearchSpec searches over two fresh seeds of the heavy scenario at
// two replicates each, so a cancel lands at a replicate boundary long
// before the round completes.
const slowSearchSpec = `{
  "version": 1,
  "name": "svc-slow",
  "seed": 5,
  "duration": 30,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 6}}],
  "search": {"metric": "afct", "parameter": "seed", "values": [205, 206]}
}`

func TestSearchCancelFansOutToInFlightRound(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})

	st, code := postSearch(t, ts, slowSearchSpec, "?reps=2")
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %+v", code, st)
	}
	sj, ok := svc.Search(st.ID)
	if !ok {
		t.Fatalf("search %s not in ledger", st.ID)
	}
	// Wait until the round's first child job is actually executing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := false
		for _, js := range svc.Jobs() {
			if js.State == StateRunning {
				running = true
			}
		}
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no child job started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/searches/"+st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp != http.StatusOK {
		t.Fatalf("cancel: %d", resp)
	}
	select {
	case <-sj.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("search did not settle after cancel")
	}
	if got := sj.Status().State; got != StateCancelled {
		t.Fatalf("state %s after cancel", got)
	}
	// Every child the round submitted is terminal too — the fan-out.
	for _, js := range svc.Jobs() {
		if !js.State.Terminal() {
			t.Fatalf("child %s still %s after search cancel", js.ID, js.State)
		}
	}
	// A second DELETE conflicts.
	if code, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/searches/"+st.ID); err != nil || code != http.StatusConflict {
		t.Fatalf("second cancel: %d %v", code, err)
	}
}

// newRequest issues a bodyless request and returns the status code.
func newRequest(t *testing.T, method, url string) (int, error) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestSearchResultAfterDeleteEndsCancelled pins the rule a job follows:
// a cancel request wins over a result that arrives after it, since the
// DELETE was answered 200. The search ends cancelled and serves nothing.
func TestSearchResultAfterDeleteEndsCancelled(t *testing.T) {
	p, err := search.Compile(mustParse(t, searchSpec), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var met metrics
	sj := newSearchJob("s000001", p, 1, 0, &met)
	if !sj.begin(func() {}) {
		t.Fatal("search did not start")
	}
	if _, ok := sj.requestCancel(false); !ok {
		t.Fatal("DELETE on a running search refused")
	}
	sj.settle(StateDone, "", &search.Result{})
	if st := sj.Status(); st.State != StateCancelled {
		t.Fatalf("search ended %s after an answered DELETE, want cancelled", st.State)
	}
	if _, ok := sj.Result(); ok {
		t.Fatal("cancelled search serves a result")
	}
}
