package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// sweepSpec expands testSpec into three seed variants — small enough that
// a whole group runs in about the time of three testSpec jobs.
const sweepSpec = `{
  "version": 1,
  "name": "svc-test",
  "seed": 3,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput", "fct-cdf"]},
  "sweep": {"parameter": "seed", "values": [31, 32, 33]}
}`

// submitGroup posts a group body and decodes the GroupStatus response.
func submitGroup(t *testing.T, ts *httptest.Server, body, query string) (GroupStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/groups"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var st GroupStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
	}
	return st, resp.StatusCode
}

func TestGroupSweepLifecycle(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 2})

	st, code := submitGroup(t, ts, sweepSpec, "?wait=true")
	if code != http.StatusOK {
		t.Fatalf("group submit status %d", code)
	}
	if st.State != StateDone || st.Variants != 3 || st.Done != 3 || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("group %+v, want all three variants done", st)
	}
	if st.Name != "svc-test" || len(st.Jobs) != 3 {
		t.Fatalf("group fields %+v", st)
	}
	wantNames := []string{"svc-test-seed-31", "svc-test-seed-32", "svc-test-seed-33"}
	for i, js := range st.Jobs {
		if js.Name != wantNames[i] || js.State != StateDone || js.ID == "" {
			t.Fatalf("variant %d = %+v, want done %s", i, js, wantNames[i])
		}
	}

	// Status endpoint and list agree.
	if b, code := get(t, ts.URL+"/v1/groups/"+st.ID); code != http.StatusOK || !bytes.Contains(b, []byte(`"state": "done"`)) {
		t.Fatalf("group status fetch: %d %s", code, b)
	}
	b, code := get(t, ts.URL+"/v1/groups")
	if code != http.StatusOK {
		t.Fatalf("group list: %d", code)
	}
	var list []GroupStatus
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("group list %+v", list)
	}

	// The aggregate result document carries one spliced result per variant.
	b, code = get(t, ts.URL+"/v1/groups/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("group result: %d %s", code, b)
	}
	var doc groupResultWire
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Name != "svc-test" || len(doc.Variants) != 3 {
		t.Fatalf("group result doc %+v", doc)
	}
	for i, v := range doc.Variants {
		if v.Name != wantNames[i] || len(v.Result) == 0 {
			t.Fatalf("variant result %d = %+v", i, v)
		}
	}

	// The group CSV is the per-variant job CSVs concatenated in expansion
	// order, for every kind the spec requests.
	for _, kind := range []string{"summary", "throughput", "fct-cdf"} {
		var want bytes.Buffer
		for _, js := range st.Jobs {
			b, code := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result?csv="+kind)
			if code != http.StatusOK {
				t.Fatalf("variant csv %s: %d", kind, code)
			}
			want.Write(b)
		}
		got, code := get(t, ts.URL+"/v1/groups/"+st.ID+"/result?csv="+kind)
		if code != http.StatusOK {
			t.Fatalf("group csv %s: %d", kind, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("group %s CSV is not the concatenation of its variants'", kind)
		}
	}
	if _, code := get(t, ts.URL+"/v1/groups/"+st.ID+"/result?csv=afct"); code != http.StatusNotFound {
		t.Fatalf("unrequested series kind served: %d", code)
	}

	// Event stream: queued first, terminal done last, contiguous sequence,
	// one terminal event per variant in expansion order (the group ran
	// jobs through one queue, but the replayed log is what it is — assert
	// the variant set, not interleaving).
	evs := readGroupEvents(t, ts.URL+"/v1/groups/"+st.ID+"/events")
	if len(evs) < 5 {
		t.Fatalf("only %d group events", len(evs))
	}
	if evs[0].State != StateQueued || evs[0].Seq != 1 || evs[0].Total != 3 {
		t.Fatalf("first group event %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.State != StateDone || last.Done != 3 {
		t.Fatalf("last group event %+v", last)
	}
	var variantEvents []string
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("group event %d has seq %d", i, ev.Seq)
		}
		if ev.Variant != "" {
			variantEvents = append(variantEvents, ev.Variant)
		}
	}
	if len(variantEvents) != 3 {
		t.Fatalf("variant terminal events %v, want one per variant", variantEvents)
	}

	// Re-submitting the same sweep is all cache hits: zero new simulation
	// work, group born done.
	misses := svc.met.cacheMisses.Load()
	st2, code := submitGroup(t, ts, sweepSpec, "")
	if code != http.StatusOK {
		t.Fatalf("cached group submit status %d, want 200 (born done)", code)
	}
	if st2.State != StateDone || st2.CacheHits != 3 {
		t.Fatalf("cached group %+v, want 3 cache hits", st2)
	}
	if svc.met.cacheMisses.Load() != misses {
		t.Fatal("cached group resubmission recomputed a variant")
	}

	// Group metrics recorded both groups.
	m, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{"scda_groups_active 0", `scda_groups_done_total{state="done"} 2`} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// readGroupEvents consumes one group NDJSON stream to termination.
func readGroupEvents(t *testing.T, url string) []GroupEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var evs []GroupEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev GroupEvent
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

func TestGroupDuplicateVariantsSingleCompute(t *testing.T) {
	// An explicit array of N identical specs is legal on the group
	// endpoint (unlike a sweep, whose variant names must be unique) and
	// must cost exactly one computation: the first variant computes, the
	// rest join its singleflight or hit the cache.
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 2})
	arr := "[" + testSpec + "," + testSpec + "," + testSpec + "]"
	st, code := submitGroup(t, ts, arr, "?wait=true")
	if code != http.StatusOK {
		t.Fatalf("group submit status %d", code)
	}
	if st.State != StateDone || st.Variants != 3 || st.Done != 3 {
		t.Fatalf("group %+v", st)
	}
	if misses := svc.met.cacheMisses.Load(); misses != 1 {
		t.Fatalf("%d computations for three identical variants, want 1", misses)
	}
	// All three served the same bytes.
	var bodies [][]byte
	for _, js := range st.Jobs {
		b, code := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("variant result: %d", code)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatal("deduplicated variants returned different bytes")
	}
}

func TestGroupCancelMidExpansion(t *testing.T) {
	// Deterministic interleaving of the expansion loop with a cancel: the
	// service publishes the group before submitting children, so a DELETE
	// can land while the expansion is still in flight. A blocker job pins
	// the only runner so the two attached variants sit in the queue (and
	// cancel instantly); the two variants submitted after the cancel must
	// be skipped without ever becoming jobs.
	svc, _ := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	blockSpec, err := scenario.Parse(strings.NewReader(strings.Replace(testSpec, `"seed": 3`, `"seed": 999`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := svc.Submit(blockSpec, 8, 100)
	if err != nil {
		t.Fatal(err)
	}

	sweep, err := scenario.Parse(strings.NewReader(strings.Replace(sweepSpec, "[31, 32, 33]", "[41, 42, 43, 44]", 1)))
	if err != nil {
		t.Fatal(err)
	}
	variants, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	g := svc.publishGroup(sweep.Name, variants, 1, 0, time.Time{})
	svc.submitVariants(g, variants[:2]) // two children, queued behind the blocker
	if cancelled, found := svc.CancelGroup(g.ID); !cancelled || !found {
		t.Fatalf("cancel mid-expansion: cancelled=%v found=%v", cancelled, found)
	}
	svc.submitVariants(g, variants[2:]) // expansion resumes, sees the cancel, skips

	select {
	case <-g.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled group never terminated")
	}
	st := g.Status()
	if st.State != StateCancelled || st.Cancelled != 4 || st.Done != 0 {
		t.Fatalf("group %+v, want all four variants cancelled", st)
	}
	if len(st.Jobs) != 4 {
		t.Fatalf("%d variant rows, want 4", len(st.Jobs))
	}
	for i, js := range st.Jobs {
		if js.State != StateCancelled {
			t.Fatalf("variant %d state %s", i, js.State)
		}
		if submitted := i < 2; (js.ID != "") != submitted {
			t.Fatalf("variant %d ID %q, want submitted=%v", i, js.ID, submitted)
		}
	}
	// The two attached children were cancelled exactly once each; the two
	// skipped variants never became jobs, so the job counters don't see
	// them.
	if n := svc.met.jobs.cancelled.Load(); n != 2 {
		t.Fatalf("doneCancelled = %d, want 2 (attached children only)", n)
	}
	if n := svc.met.groups.cancelled.Load(); n != 1 {
		t.Fatalf("groupsCancelled = %d", n)
	}
	if n := svc.met.groups.active(); n != 0 {
		t.Fatalf("groupsActive = %d", n)
	}

	// A second cancel conflicts: the group is terminal.
	if cancelled, _ := svc.CancelGroup(g.ID); cancelled {
		t.Fatal("terminal group accepted a cancel")
	}
	svc.Cancel(blocker.ID)
}

func TestGroupCancelFansOutOverHTTP(t *testing.T) {
	// DELETE on a running group cancels every child: the running variant
	// at its next replicate boundary, the queued ones instantly.
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	arr := "[" + slowSpec + "," + testSpec + "]"
	st, code := submitGroup(t, ts, arr, "?reps=4")
	if code != http.StatusCreated {
		t.Fatalf("group submit status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/groups/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("group cancel status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, _ := get(t, ts.URL+"/v1/groups/"+st.ID)
		var gst GroupStatus
		if err := json.Unmarshal(b, &gst); err != nil {
			t.Fatal(err)
		}
		if gst.State.Terminal() {
			if gst.State != StateCancelled {
				t.Fatalf("group ended %s, want cancelled", gst.State)
			}
			for i, js := range gst.Jobs {
				if !js.State.Terminal() {
					t.Fatalf("variant %d still %s after group terminal", i, js.State)
				}
			}
			// No result for a cancelled group.
			if _, code := get(t, ts.URL+"/v1/groups/"+st.ID+"/result"); code != http.StatusConflict {
				t.Fatalf("cancelled group served a result: %d", code)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled group never terminated")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestGroupResultCSVMatchesScenarioBench(t *testing.T) {
	// The acceptance criterion: the power-save sweep submitted as one
	// group yields aggregate CSVs byte-identical to concatenating the
	// files `scda-bench -scenario-dir` writes for the pre-expanded
	// variants (scenario.RunAll + Result.WriteFiles is exactly the bench's
	// code path).
	if testing.Short() {
		t.Skip("power-save sweep is seconds of simulation; skipped with -short")
	}
	spec, err := scenario.Load(filepath.Join("..", "..", "scenarios", "power-save.json"))
	if err != nil {
		t.Fatal(err)
	}
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, err := scenario.RunAll(variants, 1, runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, r := range results {
		if _, err := r.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
	}

	svc, ts := newTestServer(t, Config{Workers: 0, JobRunners: 3})
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "power-save.json"))
	if err != nil {
		t.Fatal(err)
	}
	st, code := submitGroup(t, ts, string(raw), "?wait=true")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("group submit: %d %+v", code, st)
	}
	for _, kind := range []string{"summary", "throughput", "fct-cdf"} {
		var want bytes.Buffer
		for _, v := range variants {
			b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%s.csv", v.Name, kind)))
			if err != nil {
				t.Fatal(err)
			}
			want.Write(b)
		}
		got, code := get(t, ts.URL+"/v1/groups/"+st.ID+"/result?csv="+kind)
		if code != http.StatusOK {
			t.Fatalf("group csv %s: %d", kind, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("group %s CSV differs from scda-bench files", kind)
		}
	}
	// All-variant cache hits on resubmission: zero simulation work.
	misses := svc.met.cacheMisses.Load()
	st2, _ := submitGroup(t, ts, string(raw), "")
	if st2.State != StateDone || st2.CacheHits != len(variants) || svc.met.cacheMisses.Load() != misses {
		t.Fatalf("resubmitted sweep not fully cached: %+v", st2)
	}
}

func TestGroupHistoryEviction(t *testing.T) {
	// GroupHistory counts retained *variants*, not groups: three 3-variant
	// groups against a 6-variant bound keep the two newest groups.
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, GroupHistory: 6})
	var ids []string
	for i := 0; i < 3; i++ {
		st, code := submitGroup(t, ts, sweepSpec, "?wait=true")
		if code != http.StatusOK {
			t.Fatalf("group submit %d status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	if _, code := get(t, ts.URL+"/v1/groups/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest group still served: %d, want 404 after eviction", code)
	}
	for _, id := range ids[1:] {
		if _, code := get(t, ts.URL+"/v1/groups/"+id); code != http.StatusOK {
			t.Fatalf("recent group %s evicted: %d", id, code)
		}
	}
	// A tighter bound still never evicts the just-submitted group.
	_, ts2 := newTestServer(t, Config{Workers: 1, JobRunners: 1, GroupHistory: 1})
	st, code := submitGroup(t, ts2, sweepSpec, "?wait=true")
	if code != http.StatusOK {
		t.Fatalf("group submit status %d", code)
	}
	if _, code := get(t, ts2.URL+"/v1/groups/"+st.ID); code != http.StatusOK {
		t.Fatalf("just-submitted group evicted: %d", code)
	}
}

func TestGroupSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, MaxGroupVariants: 3})
	cases := map[string]struct {
		body  string
		query string
	}{
		"empty body":          {body: "   ", query: ""},
		"malformed array":     {body: "[{not json]", query: ""},
		"bad array element":   {body: `[{"version":1,"name":"x","seed":1,"duration":-5,"workload":[{"generator":"dc"}]}]`, query: ""},
		"trailing data":       {body: "[" + testSpec + "] garbage", query: ""},
		"too many variants":   {body: "[" + testSpec + "," + testSpec + "," + testSpec + "," + testSpec + "]", query: ""},
		"negative reps":       {body: sweepSpec, query: "?reps=-1"},
		"reps over limit":     {body: sweepSpec, query: "?reps=65"},
		"absurd priority":     {body: sweepSpec, query: "?priority=1048577"},
		"absurd neg priority": {body: sweepSpec, query: "?priority=-1048577"},
	}
	for name, tc := range cases {
		if _, code := submitGroup(t, ts, tc.body, tc.query); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if _, code := get(t, ts.URL+"/v1/groups/g999999"); code != http.StatusNotFound {
		t.Errorf("unknown group: %d, want 404", code)
	}
	// A rejected submission publishes nothing.
	b, _ := get(t, ts.URL+"/v1/groups")
	var list []GroupStatus
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("rejected submissions left %d groups behind", len(list))
	}
}

func TestCloseRaceLosesNoJobs(t *testing.T) {
	// The satellite assertion for the queue shutdown edge: when Close
	// races a burst of submissions, every job must still settle exactly
	// once — terminal state, terminal counter, ledger entry — and the
	// queue gauge must come back to zero. Run several rounds to give the
	// race detector surface.
	const rounds, n = 6, 12
	tiny := `{"version":1,"name":"svc-tiny","seed":%d,"duration":1,
	  "topology":{"kind":"fig6","x":1e7,"k":3},
	  "workload":[{"generator":"dc","params":{"ArrivalRate":1}}],
	  "outputs":{"series":["throughput"]}}`
	for round := 0; round < rounds; round++ {
		specs := make([]*scenario.Spec, n)
		for i := range specs {
			sp, err := scenario.Parse(strings.NewReader(fmt.Sprintf(tiny, 1000+round*n+i)))
			if err != nil {
				t.Fatal(err)
			}
			specs[i] = sp
		}
		svc := New(Config{Workers: 1, JobRunners: 2})
		jobs := make([]*Job, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				j, err := svc.Submit(specs[i], 1, i%3)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				jobs[i] = j
			}(i)
		}
		close(start)
		svc.Close()
		wg.Wait()

		var terminalSum int64
		terminalSum = svc.met.jobs.done.Load() + svc.met.jobs.failed.Load() + svc.met.jobs.cancelled.Load()
		if terminalSum != n {
			t.Fatalf("round %d: terminal counters sum to %d, want %d (a job was lost or double-counted)", round, terminalSum, n)
		}
		if q := svc.met.jobs.queued.Load(); q != 0 {
			t.Fatalf("round %d: queue gauge %d after Close", round, q)
		}
		if r := svc.met.jobs.running.Load(); r != 0 {
			t.Fatalf("round %d: running gauge %d after Close", round, r)
		}
		for i, j := range jobs {
			if j == nil {
				t.Fatalf("round %d: job %d missing", round, i)
			}
			if !j.Status().State.Terminal() {
				t.Fatalf("round %d: job %s not terminal after Close", round, j.ID)
			}
			if _, ok := svc.Job(j.ID); !ok {
				t.Fatalf("round %d: job %s silently dropped from the ledger", round, j.ID)
			}
		}
		// The search race needs many drains to show: a few hundred
		// services cost well under a second.
		for k := 0; k < 25; k++ {
			closeRaceSearches(t, round, tiny)
		}
	}
}

// closeRaceSearches races Close against searchers that submit until the
// drain refuses them. A search's engine joins the WaitGroup Close waits
// on, so Close must neither panic nor return before an accepted search
// is terminal.
func closeRaceSearches(t *testing.T, round int, tiny string) {
	t.Helper()
	const searchers, most = 4, 8
	search := strings.Replace(fmt.Sprintf(tiny, 1), `"outputs"`,
		`"search":{"metric":"afct","parameter":"seed","values":[2,3]},"outputs"`, 1)
	svc := New(Config{Workers: 1, JobRunners: 2})
	var mu sync.Mutex
	var accepted []*SearchJob
	var wg, busy sync.WaitGroup
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		busy.Add(1)
		go func() {
			defer wg.Done()
			looping := sync.OnceFunc(busy.Done) // Close may begin
			defer looping()
			for n := 0; n < most; n++ {
				spec, err := scenario.Parse(strings.NewReader(search))
				if err != nil {
					t.Errorf("search spec: %v", err)
					return
				}
				sj, err := svc.SubmitSearch(spec, 1, 0)
				looping()
				if err != nil {
					return // refused: the drain began
				}
				mu.Lock()
				accepted = append(accepted, sj)
				mu.Unlock()
			}
		}()
	}
	busy.Wait()
	svc.Close()
	wg.Wait()
	for _, sj := range accepted {
		if !closed(sj.Done()) {
			t.Fatalf("round %d: search %s accepted but not terminal after Close returned", round, sj.ID)
		}
	}
}

// FuzzGroupBody feeds hostile group bodies to parseGroupBody. It must
// never panic; every variant it accepts must be sweep-free and valid; and
// an accepted single spec object x must mean the same group as the
// one-element array [x] — the same name and the same variant hashes, in
// order. Seeds are the shipped scenarios and their one-element arrays.
func FuzzGroupBody(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped scenarios: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add([]byte("[" + string(b) + "]"))
	}
	hashes := func(t *testing.T, variants []*scenario.Spec) []string {
		t.Helper()
		out := make([]string, len(variants))
		for i, v := range variants {
			if v.Sweep != nil {
				t.Fatalf("variant %s still carries a sweep", v.Name)
			}
			if err := v.Validate(); err != nil {
				t.Fatalf("accepted variant %s does not validate: %v", v.Name, err)
			}
			h, err := v.Hash()
			if err != nil {
				t.Fatalf("accepted variant %s does not hash: %v", v.Name, err)
			}
			out[i] = h
		}
		return out
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		name, variants, err := parseGroupBody(body)
		if err != nil {
			return
		}
		hs := hashes(t, variants)
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); trimmed[0] == '[' {
			return
		}
		wname, wvariants, err := parseGroupBody([]byte("[" + string(body) + "]"))
		if err != nil {
			t.Fatalf("object accepted but its one-element array rejected: %v", err)
		}
		if wname != name {
			t.Fatalf("array names the group %q, the object %q", wname, name)
		}
		if whs := hashes(t, wvariants); strings.Join(whs, " ") != strings.Join(hs, " ") {
			t.Fatalf("array variant hashes %v, object %v", whs, hs)
		}
	})
}
