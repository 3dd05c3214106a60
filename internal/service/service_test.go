package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testSpec is small enough that one replicate runs in well under a second
// but still produces non-trivial output series.
const testSpec = `{
  "version": 1,
  "name": "svc-test",
  "seed": 3,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput", "fct-cdf"]}
}`

// slowSpec is the cancellation workhorse: heavy enough per replicate that
// a DELETE issued after the first replicate lands long before the last.
const slowSpec = `{
  "version": 1,
  "name": "svc-slow",
  "seed": 5,
  "duration": 30,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 6}}]
}`

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func submit(t *testing.T, ts *httptest.Server, spec, query string) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return st, resp.StatusCode
}

func get(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return b, resp.StatusCode
}

func TestSubmitWaitStreamFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobRunners: 1})

	st, code := submit(t, ts, testSpec, "?wait=true&reps=2")
	if code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if st.State != StateDone || st.CacheHit {
		t.Fatalf("job %+v, want fresh done", st)
	}
	if st.Name != "svc-test" || st.Reps != 2 || st.RepsDone != 2 {
		t.Fatalf("status fields %+v", st)
	}
	if !strings.HasPrefix(st.Key, "v1-") {
		t.Fatalf("cache key %q not hash-derived", st.Key)
	}

	// Status endpoint agrees.
	b, code := get(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"state": "done"`)) {
		t.Fatalf("status fetch: %d %s", code, b)
	}

	// Result JSON carries the summary and both requested series groups.
	b, code = get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result fetch: %d %s", code, b)
	}
	var wire resultWire
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Name != "svc-test" || wire.Replicates != 2 || len(wire.Groups) != 2 {
		t.Fatalf("result wire %+v", wire)
	}
	if wire.Summary["requests"] <= 0 {
		t.Fatalf("summary has no requests: %v", wire.Summary)
	}
	if wire.Summary["replicates"] != 2 {
		t.Fatalf("replicated summary missing replicates key: %v", wire.Summary)
	}

	// CSV artifacts: the summary and each requested kind.
	for _, kind := range []string{"summary", "throughput", "fct-cdf"} {
		b, code = get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?csv="+kind)
		if code != http.StatusOK || len(b) == 0 {
			t.Fatalf("csv %s: %d", kind, code)
		}
	}
	if _, code = get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?csv=afct"); code != http.StatusNotFound {
		t.Fatalf("unrequested series served: %d", code)
	}

	// Event stream: replay of the full deterministic lifecycle.
	evs := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(evs) < 3 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].State != StateQueued || evs[0].Seq != 1 {
		t.Fatalf("first event %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.State != StateDone || last.RepsDone != 2 {
		t.Fatalf("last event %+v", last)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// readEvents consumes one NDJSON stream to termination.
func readEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestResultBytesMatchCLIFiles(t *testing.T) {
	// The acceptance criterion: a spec submitted over HTTP yields CSVs
	// byte-identical to what scda-sim -scenario writes for the same
	// spec and seed.
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	st, code := submit(t, ts, testSpec, "?wait=true")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: %d %+v", code, st)
	}

	spec, err := scenario.Parse(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := r.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	for csvParam, file := range map[string]string{
		"summary":    "svc-test-summary.csv",
		"throughput": "svc-test-throughput.csv",
		"fct-cdf":    "svc-test-fct-cdf.csv",
	} {
		want, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		got, code := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?csv="+csvParam)
		if code != http.StatusOK {
			t.Fatalf("csv %s: %d", csvParam, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between service and CLI:\nservice: %q\ncli:     %q", csvParam, got, want)
		}
	}
}

func TestCacheHitSecondSubmissionByteIdentical(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})

	first, code := submit(t, ts, testSpec, "?wait=true")
	if code != http.StatusOK || first.State != StateDone || first.CacheHit {
		t.Fatalf("first submit: %d %+v", code, first)
	}
	// Re-submit with different formatting of the same spec: the canonical
	// hash must still hit.
	reformatted := strings.ReplaceAll(testSpec, "\n", " ")
	second, code := submit(t, ts, reformatted, "?wait=true")
	if code != http.StatusOK || second.State != StateDone {
		t.Fatalf("second submit: %d %+v", code, second)
	}
	if !second.CacheHit {
		t.Fatal("second submission of an identical spec was not a cache hit")
	}
	if second.ID == first.ID {
		t.Fatal("jobs must be distinct even when the result is shared")
	}
	if second.Key != first.Key {
		t.Fatalf("cache keys differ: %s vs %s", first.Key, second.Key)
	}

	for _, path := range []string{"/result", "/result?csv=summary", "/result?csv=throughput", "/result?csv=fct-cdf"} {
		a, _ := get(t, ts.URL+"/v1/jobs/"+first.ID+path)
		b, _ := get(t, ts.URL+"/v1/jobs/"+second.ID+path)
		if !bytes.Equal(a, b) {
			t.Errorf("%s not byte-identical across cache hit", path)
		}
	}

	if hits := svc.met.cacheHits.Load(); hits != 1 {
		t.Fatalf("cacheHits = %d, want 1", hits)
	}
	if misses := svc.met.cacheMisses.Load(); misses != 1 {
		t.Fatalf("cacheMisses = %d, want 1", misses)
	}
	b, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"scda_cache_hits_total 1",
		"scda_cache_misses_total 1",
		`scda_jobs_done_total{state="done"} 2`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

func TestCancelMidReplication(t *testing.T) {
	const reps = 16
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})

	st, code := submit(t, ts, slowSpec, fmt.Sprintf("?reps=%d", reps))
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}

	// Watch the live stream until the first replicate completes, so the
	// cancel provably lands mid-replication.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.RepsDone >= 1 && ev.State == StateRunning {
			sawProgress = true
			break
		}
		if ev.State.Terminal() {
			t.Fatalf("job terminated (%s) before any progress event", ev.State)
		}
	}
	if !sawProgress {
		t.Fatal("event stream ended without a progress event")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state %s after cancel, want cancelled", final.State)
	}
	if final.RepsDone >= reps {
		t.Fatalf("all %d replicates ran despite the cancel", reps)
	}

	// The result endpoint must refuse: there is no result.
	if _, code := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of a cancelled job: %d, want 409", code)
	}
	// Cancelling again conflicts: the job is terminal.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", dresp.StatusCode)
	}
}

// waitTerminal polls the status endpoint until the job terminates.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, code := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status fetch %d", code)
		}
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job never terminated")
	return Status{}
}

func TestCancelQueuedJob(t *testing.T) {
	// One runner busy with a slow job: the second job sits queued and a
	// DELETE must cancel it without it ever running.
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	slow, code := submit(t, ts, slowSpec, "?reps=8")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	queued, code := submit(t, ts, testSpec, "")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	if st := waitTerminal(t, ts, queued.ID); st.State != StateCancelled || st.RepsDone != 0 {
		t.Fatalf("queued job ended %+v, want cancelled before any work", st)
	}
	// The queue-depth gauge must not count the cancelled job's dead heap
	// entry: nothing is waiting any more.
	if m, _ := get(t, ts.URL+"/metrics"); !bytes.Contains(m, []byte("scda_jobs_queued 0\n")) {
		t.Fatalf("queue gauge still counts a cancelled job:\n%s", m)
	}
	// And the heap entry itself is gone, not just the gauge: cancelled
	// submissions must not pin memory until a runner drains them.
	if n := svc.queue.Len(); n != 0 {
		t.Fatalf("cancelled job still occupies the heap (%d entries)", n)
	}
	// Unblock the suite quickly.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts, slow.ID)
}

func TestCancelJoinedJobHonoured(t *testing.T) {
	// Two identical submissions share one flight; cancelling the joined
	// one must report cancelled once the flight resolves, never flip the
	// DELETE acknowledgement into a done.
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 2})
	a, code := submit(t, ts, slowSpec, "?reps=8")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	b, code := submit(t, ts, slowSpec, "?reps=8")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	// Wait until the second job is running (i.e. joined or computing).
	deadline := time.Now().Add(30 * time.Second)
	for {
		bb, _ := get(t, ts.URL+"/v1/jobs/"+b.ID)
		var st Status
		json.Unmarshal(bb, &st)
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job b terminated early: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job b never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	sb := waitTerminal(t, ts, b.ID)
	if sb.State != StateCancelled {
		t.Fatalf("cancelled joined job ended %s", sb.State)
	}
	// The other submission is unaffected: whichever side owned the
	// flight, the uncancelled job completes (re-running it itself if the
	// cancelled sibling owned the computation).
	if sa := waitTerminal(t, ts, a.ID); sa.State != StateDone {
		t.Fatalf("sibling job ended %s, want done", sa.State)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, JobHistory: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, code := submit(t, ts, testSpec, "?wait=true")
		if code != http.StatusOK {
			t.Fatalf("submit %d status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	if _, code := get(t, ts.URL+"/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job still served: %d, want 404 after eviction", code)
	}
	for _, id := range ids[1:] {
		if _, code := get(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("recent job %s evicted: %d", id, code)
		}
	}
	if n := len(svc.Jobs()); n != 2 {
		t.Fatalf("ledger holds %d jobs, want 2", n)
	}
	// The result survives eviction: it lives in the cache, not the job.
	st, code := submit(t, ts, testSpec, "?wait=true")
	if code != http.StatusOK || !st.CacheHit {
		t.Fatalf("post-eviction submit: %d %+v, want cache hit", code, st)
	}
}

func TestTraceArtifactMatchesCLI(t *testing.T) {
	// outputs.trace parity: the service serves the same trace CSV the CLI
	// writes for a single-seed run.
	traceSpec := strings.Replace(testSpec,
		`"outputs": {"series": ["throughput", "fct-cdf"]}`,
		`"outputs": {"series": ["throughput"], "trace": true}`, 1)
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	st, code := submit(t, ts, traceSpec, "?wait=true")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: %d %+v", code, st)
	}
	got, code := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?csv=trace")
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d", code)
	}
	spec, err := scenario.Parse(strings.NewReader(traceSpec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := r.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "svc-test-trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace CSV differs between service and CLI")
	}
}

func TestJobHistorySkipsActiveFront(t *testing.T) {
	// An active job at the front of a saturated ledger must be kept while
	// terminal jobs behind it are evicted.
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 2, JobHistory: 2})
	slow, code := submit(t, ts, slowSpec, "?reps=16")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	var done []string
	for i := 0; i < 3; i++ {
		st, code := submit(t, ts, testSpec, "?wait=true")
		if code != http.StatusOK {
			t.Fatalf("submit %d status %d", i, code)
		}
		done = append(done, st.ID)
	}
	// Ledger was [slow(running), d0, d1, d2] with bound 2: d0 and d1 go.
	if _, code := get(t, ts.URL+"/v1/jobs/"+slow.ID); code != http.StatusOK {
		t.Fatalf("active front job evicted: %d", code)
	}
	for _, id := range done[:2] {
		if _, code := get(t, ts.URL+"/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("old terminal job %s survived: %d", id, code)
		}
	}
	if _, code := get(t, ts.URL+"/v1/jobs/"+done[2]); code != http.StatusOK {
		t.Fatalf("newest job evicted: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts, slow.ID)
}

func TestPruneNeverEvictsJustSubmittedJob(t *testing.T) {
	// Saturated ledger where everything old is active: a born-done cache
	// hit is the only terminal entry, and pruning must not evict it before
	// the client can fetch it.
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, JobHistory: 2})
	warm, code := submit(t, ts, testSpec, "?wait=true")
	if code != http.StatusOK || warm.State != StateDone {
		t.Fatalf("warmup: %d %+v", code, warm)
	}
	slow1, code := submit(t, ts, slowSpec, "?reps=8")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	slow2, code := submit(t, ts, slowSpec, "?reps=16") // distinct key: queued
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	// Ledger is now [warm(done), slow1(active), slow2(active)]; the next
	// submit prunes warm, leaving only active jobs plus the new cache hit.
	hit, code := submit(t, ts, testSpec, "")
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("cache-hit submit: %d %+v", code, hit)
	}
	if _, code := get(t, ts.URL+"/v1/jobs/"+hit.ID); code != http.StatusOK {
		t.Fatalf("just-submitted cache hit already evicted: %d", code)
	}
	if _, code := get(t, ts.URL+"/v1/jobs/"+hit.ID+"/result"); code != http.StatusOK {
		t.Fatalf("just-submitted cache hit result unfetchable: %d", code)
	}
	// Settlement evicts too: slow1 settles while the ledger weighs 3 of
	// 2, so it goes; slow2 then settles within the bound and stays.
	for i, id := range []string{slow1.ID, slow2.ID} {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("%s evicted while live", id)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never settled", id)
		}
		want := []int{http.StatusNotFound, http.StatusOK}[i]
		if _, code := get(t, ts.URL+"/v1/jobs/"+id); code != want {
			t.Fatalf("status of settled %s: %d, want %d", id, code, want)
		}
	}
	if _, code := get(t, ts.URL+"/v1/jobs/"+hit.ID); code != http.StatusOK {
		t.Fatalf("newest job evicted: %d", code)
	}
}

func TestCacheEntriesEviction(t *testing.T) {
	// Three distinct specs through a 2-entry memory cache: the first
	// entry is evicted (resubmission recomputes), recent ones still hit.
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, CacheEntries: 2})
	specs := make([]string, 3)
	for i := range specs {
		specs[i] = strings.Replace(testSpec, `"seed": 3`, fmt.Sprintf(`"seed": %d`, 100+i), 1)
		if st, code := submit(t, ts, specs[i], "?wait=true"); code != http.StatusOK || st.State != StateDone {
			t.Fatalf("submit %d: %d %+v", i, code, st)
		}
	}
	if n := svc.CacheLen(); n != 2 {
		t.Fatalf("memory cache holds %d entries, want 2", n)
	}
	st, code := submit(t, ts, specs[0], "?wait=true")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("resubmit: %d %+v", code, st)
	}
	if st.CacheHit {
		t.Fatal("evicted entry still hit the cache")
	}
	st, _ = submit(t, ts, specs[2], "?wait=true")
	if !st.CacheHit {
		t.Fatal("recent entry was evicted")
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	svc1 := New(Config{Workers: 1, JobRunners: 1, CacheDir: dir})
	ts1 := httptest.NewServer(svc1.Handler())
	first, code := submit(t, ts1, testSpec, "?wait=true")
	if code != http.StatusOK || first.State != StateDone {
		t.Fatalf("first submit: %d %+v", code, first)
	}
	firstJSON, _ := get(t, ts1.URL+"/v1/jobs/"+first.ID+"/result")
	firstCSV, _ := get(t, ts1.URL+"/v1/jobs/"+first.ID+"/result?csv=summary")
	ts1.Close()
	svc1.Close()

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("disk cache entries: %v (err %v)", entries, err)
	}

	svc2, ts2 := newTestServer(t, Config{Workers: 1, JobRunners: 1, CacheDir: dir})
	second, code := submit(t, ts2, testSpec, "?wait=true")
	if code != http.StatusOK || second.State != StateDone {
		t.Fatalf("second submit: %d %+v", code, second)
	}
	if !second.CacheHit {
		t.Fatal("restarted service recomputed a disk-cached result")
	}
	if svc2.met.cacheMisses.Load() != 0 {
		t.Fatal("disk hit counted as a miss")
	}
	secondJSON, _ := get(t, ts2.URL+"/v1/jobs/"+second.ID+"/result")
	secondCSV, _ := get(t, ts2.URL+"/v1/jobs/"+second.ID+"/result?csv=summary")
	if !bytes.Equal(firstJSON, secondJSON) || !bytes.Equal(firstCSV, secondCSV) {
		t.Fatal("disk-cached result not byte-identical to the original")
	}
}

func TestInFlightDeduplication(t *testing.T) {
	// Two identical submissions racing: exactly one computation, both done.
	svc, ts := newTestServer(t, Config{Workers: 2, JobRunners: 2})
	a, code := submit(t, ts, testSpec, "?reps=3")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	b, code := submit(t, ts, testSpec, "?reps=3")
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	sa, sb := waitTerminal(t, ts, a.ID), waitTerminal(t, ts, b.ID)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("states %s / %s", sa.State, sb.State)
	}
	if misses := svc.met.cacheMisses.Load(); misses != 1 {
		t.Fatalf("%d computations for two identical submissions", misses)
	}
	ra, _ := get(t, ts.URL+"/v1/jobs/"+a.ID+"/result")
	rb, _ := get(t, ts.URL+"/v1/jobs/"+b.ID+"/result")
	if !bytes.Equal(ra, rb) {
		t.Fatal("deduplicated jobs returned different bytes")
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, MaxReps: 4})

	cases := map[string]struct {
		body  string
		query string
	}{
		"malformed json":  {body: "{not json", query: ""},
		"unknown field":   {body: `{"version":1,"name":"x","seed":1,"duration":5,"bogus":1,"workload":[{"generator":"dc"}]}`, query: ""},
		"invalid spec":    {body: `{"version":1,"name":"x","seed":1,"duration":-5,"workload":[{"generator":"dc"}]}`, query: ""},
		"sweep spec":      {body: `{"version":1,"name":"x","seed":1,"duration":5,"workload":[{"generator":"dc"}],"sweep":{"parameter":"seed","values":[1,2]}}`, query: ""},
		"reps over limit": {body: testSpec, query: "?reps=5"},
		"bad reps":        {body: testSpec, query: "?reps=abc"},
		// PR 5 edge validation: before it, a negative ?reps silently
		// became the server default and any priority magnitude was
		// accepted into the queue and the wire format.
		"negative reps":         {body: testSpec, query: "?reps=-1"},
		"very negative reps":    {body: testSpec, query: "?reps=-9999999"},
		"bad priority":          {body: testSpec, query: "?priority=abc"},
		"absurd priority":       {body: testSpec, query: "?priority=1048577"},
		"absurd neg priority":   {body: testSpec, query: "?priority=-1048577"},
		"float reps":            {body: testSpec, query: "?reps=1.5"},
		"overflow reps":         {body: testSpec, query: "?reps=99999999999999999999"},
		"overflow neg priority": {body: testSpec, query: "?priority=-99999999999999999999"},
	}
	for name, tc := range cases {
		if _, code := submit(t, ts, tc.body, tc.query); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// In-range knobs still pass: negative priority is a legitimate
	// "run me last", zero reps selects the default.
	if st, code := submit(t, ts, testSpec, "?wait=true&reps=0&priority=-5"); code != http.StatusOK || st.Priority != -5 {
		t.Errorf("valid knobs rejected: %d %+v", code, st)
	}

	// Oversized bodies get the honest status, not a spec-syntax 400.
	big := strings.Repeat(" ", maxSpecBytes+1) + testSpec
	if _, code := submit(t, ts, big, ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", code)
	}

	if _, code := get(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if _, code := get(t, ts.URL+"/v1/jobs/j999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}
}

// FuzzSubmitParams feeds arbitrary ?reps, ?priority and ?deadline values
// to the query knob parser the job, group and search endpoints share. It
// must never panic. An accepted call yields reps in [0, MaxReps], a
// priority within maxPriorityMagnitude and a non-zero deadline exactly
// when ?deadline= is non-empty, and writes nothing; a refused call writes
// one 400 carrying the JSON error envelope.
func FuzzSubmitParams(f *testing.F) {
	svc := New(Config{Workers: 1, JobRunners: 1})
	f.Cleanup(svc.Close)
	for _, knobs := range [][3]string{
		{"", "", ""},
		{"2", "-5", "30s"},
		{"0", "1048576", "2000-01-01T00:00:00Z"},
		{"65", "1048577", "soon"},
		{"-1", "abc", "-1s"},
		{"1.5", "-99999999999999999999", "0s"},
		// The zero instant, at UTC and at an offset: every layer below
		// the parser reads the zero time as no deadline at all.
		{"", "", "0001-01-01T00:00:00Z"},
		{"", "", "0001-01-01T01:00:00+01:00"},
	} {
		f.Add(knobs[0], knobs[1], knobs[2])
	}
	f.Fuzz(func(t *testing.T, reps, priority, deadline string) {
		q := url.Values{"reps": {reps}, "priority": {priority}, "deadline": {deadline}}
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs?"+q.Encode(), nil)
		gotReps, gotPriority, gotDeadline, ok := svc.submitParams(rec, r)
		if ok {
			if gotReps < 0 || gotReps > svc.cfg.MaxReps {
				t.Fatalf("accepted reps %d outside [0, %d]", gotReps, svc.cfg.MaxReps)
			}
			if gotPriority > maxPriorityMagnitude || gotPriority < -maxPriorityMagnitude {
				t.Fatalf("accepted priority %d beyond magnitude %d", gotPriority, maxPriorityMagnitude)
			}
			if gotDeadline.IsZero() != (deadline == "") {
				t.Fatalf("?deadline=%q accepted as %v", deadline, gotDeadline)
			}
			if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
				t.Fatalf("accepted knobs wrote a response: %v %q", rec.Header(), rec.Body)
			}
			return
		}
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("refused knobs answered %d %q, want a JSON 400", rec.Code, rec.Header().Get("Content-Type"))
		}
		dec := json.NewDecoder(rec.Body)
		var env map[string]string
		if err := dec.Decode(&env); err != nil || env["error"] == "" || len(env) != 1 {
			t.Fatalf("refusal body is not one error envelope: %v %v", env, err)
		}
		if dec.More() {
			t.Fatal("refusal wrote more than one envelope")
		}
	})
}

// TestSubmitNegativeDelayRejected: a custom fabric with a negative link
// delay is a 400 on the job and group endpoints, both as a lone spec and
// as a sweep, never a handler panic that drops the connection.
func TestSubmitNegativeDelayRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	fig6 := `"topology": {"kind": "fig6", "x": 5e7, "k": 3}`
	for _, topo := range []string{
		`"topology": {"kind": "custom", "dcDelay": -0.001}`,
		`"topology": {"kind": "custom", "wanDelay": -0.05}`,
	} {
		spec := strings.Replace(testSpec, fig6, topo, 1)
		sweep := strings.Replace(sweepSpec, fig6, topo, 1)
		if spec == testSpec || sweep == sweepSpec {
			t.Fatal("test specs no longer carry the fig6 topology line")
		}
		if _, code := submit(t, ts, spec, ""); code != http.StatusBadRequest {
			t.Errorf("job %s: status %d, want 400", topo, code)
		}
		if _, code := submitGroup(t, ts, "["+spec+"]", ""); code != http.StatusBadRequest {
			t.Errorf("group %s: status %d, want 400", topo, code)
		}
		if _, code := submitGroup(t, ts, sweep, ""); code != http.StatusBadRequest {
			t.Errorf("sweep group %s: status %d, want 400", topo, code)
		}
	}
}

// TestSubmitClientsBeyondTopologyRejected: a workload phase drawing from
// more clients than the topology has is a 400 naming the phase on the job,
// group and search endpoints, never a run in which the extra clients'
// requests fail (packet engine) or fold onto other clients (fluid engine).
func TestSubmitClientsBeyondTopologyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	fig6 := `"topology": {"kind": "fig6", "x": 5e7, "k": 3}`
	// the dc phase keeps the generator's default 40 clients
	few := `"topology": {"kind": "custom", "clients": 8}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", testSpec},
		{"/v1/groups", "[" + testSpec + "]"},
		{"/v1/groups", sweepSpec},
		{"/v1/searches", searchSpec},
	} {
		body := strings.Replace(tc.body, fig6, few, 1)
		if body == tc.body {
			t.Fatalf("%s: the test spec no longer carries the fig6 topology line", tc.path)
		}
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("phase 0 (dc): Clients = 40 exceeds the topology's 8 clients")) {
			t.Errorf("%s: %d %s, want 400 naming the phase's clients", tc.path, resp.StatusCode, msg)
		}
	}
}

func TestJobListOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	a, _ := submit(t, ts, testSpec, "?wait=true")
	b, _ := submit(t, ts, testSpec, "?wait=true")
	body, code := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list %+v not in submission order", list)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue()
	spec := &scenario.Spec{Name: "q"}
	mk := func(id string, prio int) *Job {
		return newJob(id, spec, "k", "h", 1, prio, time.Time{}, nil, new(tally))
	}
	q.Push(mk("low-1", 0))
	q.Push(mk("high", 5))
	q.Push(mk("low-2", 0))
	q.Push(mk("mid", 3))
	var order []string
	for i := 0; i < 4; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		order = append(order, j.ID)
	}
	want := []string{"high", "mid", "low-1", "low-2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
	rest := q.Close()
	if len(rest) != 0 {
		t.Fatalf("drained queue returned %d jobs at close", len(rest))
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on a closed queue")
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	running, code := submit(t, ts, slowSpec, "?reps=8")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	queued, code := submit(t, ts, testSpec, "")
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	// Wait for the first job to actually start.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, _ := svc.Job(running.ID); j.Status().State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Close() // must return: runners drain, running job cancels at a replicate boundary

	jr, _ := svc.Job(running.ID)
	jq, _ := svc.Job(queued.ID)
	if st := jr.Status().State; st != StateCancelled {
		t.Fatalf("running job ended %s after Close", st)
	}
	if st := jq.Status().State; st != StateCancelled {
		t.Fatalf("queued job ended %s after Close", st)
	}

	// Submitting after Close yields a cancelled job, not a hang.
	spec, err := scenario.Parse(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("post-Close submit never terminated")
	}
	if st := j.Status().State; st != StateCancelled {
		t.Fatalf("post-Close job state %s", st)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	b, code := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, b)
	}
}
