package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// FuzzServiceModel drives one seeded session of random steps through
// Handler beside a small reference model of the job, group and search
// lifecycles, in the style of QuickCheck's state-machine testing
// (Claessen & Hughes, ICFP 2000). The steps submit jobs, groups and
// searches (fresh, cached and duplicate, some past their deadline),
// DELETE known IDs, wait, and restart the service on the same journal and
// cache directories. After every step the model checks what must hold
// whatever the scheduling: terminal states stick and every event stream
// ends with its one terminal event, groups settle by their children, an
// answered DELETE ends its entry cancelled, done jobs serve the reference
// bytes, counters match the model at rest, a restart recovers exactly the
// work still owed, and nothing outside the service's directories moves. A
// failure names the seed and the step.
func FuzzServiceModel(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		newModelRun(t, seed).run()
	})
}

// modelTiny is the model's cheap spec (under a millisecond a replicate);
// its seed picks one of a small pool, so submits repeat and hit the cache.
const modelTiny = `{"version":1,"name":"svc-model","seed":%d,"duration":1,
  "topology":{"kind":"fig6","x":1e7,"k":3},
  "workload":[{"generator":"dc","params":{"ArrivalRate":1}}],
  "outputs":{"series":["throughput"]}}`

// modelSearch searches two seeds of modelTiny's scenario in one round.
const modelSearch = `{"version":1,"name":"svc-model-search","seed":1,"duration":1,
  "topology":{"kind":"fig6","x":1e7,"k":3},
  "workload":[{"generator":"dc","params":{"ArrivalRate":1}}],
  "search":{"metric":"afct","parameter":"seed","values":[%d,%d]}}`

// The model's ledger bounds: small, so eviction runs in most sessions.
const (
	modelJobHistory    = 4
	modelGroupHistory  = 4
	modelSearchHistory = 1
)

// modelEntry is what the model knows of one job, group or search of the
// current process.
type modelEntry struct {
	kind       string // "jobs", "groups" or "searches"
	id         string
	state      State // last observed
	terminalAt int   // the moment it was first seen terminal; -1 not yet
	checked    bool  // a terminal group's checks have run
	key        string
	priority   int
	deadline   bool // submitted with a deadline (a group's children inherit it)
	owned      bool // submitted by the model, recovered, or a child of a model group
	cancelled  bool // a DELETE on it, or on its group, was answered 200
	children   []string
}

// modelProc is the model of one service process.
type modelProc struct {
	startSeq        int // the job ID counter at New: this process's job IDs lie above it
	entries         map[string]*modelEntry
	newest          map[string]*modelEntry // per kind, the last one listed
	searchCancelled bool                   // a search DELETE was answered 200
}

type modelRun struct {
	t                      *testing.T
	seed                   uint64
	step                   int
	what                   string
	rng                    *rand.Rand
	root, jdir, cdir, sent string
	inj                    *chaos.Injector
	svc                    *Service
	ts                     *httptest.Server
	proc                   *modelProc
	clock                  int // moments: one per response, in the order the model read them
}

func newModelRun(t *testing.T, seed uint64) *modelRun {
	root := t.TempDir()
	m := &modelRun{t: t, seed: seed, rng: rand.New(rand.NewSource(int64(seed))), root: root,
		jdir: filepath.Join(root, "journal"), cdir: filepath.Join(root, "cache"), sent: filepath.Join(root, "sentinel")}
	if err := os.WriteFile(m.sent, []byte("untouched\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if seed%3 == 0 {
		m.inj = chaos.New(chaos.Config{Seed: int64(seed), DiskErr: 0.3})
	}
	return m
}

func (m *modelRun) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d step %d (%s): %s", m.seed, m.step, m.what, fmt.Sprintf(format, args...))
}

func (m *modelRun) run() {
	m.start(0)
	m.t.Cleanup(func() {
		if m.ts != nil {
			m.ts.Close()
			m.svc.Close()
		}
	})
	steps := 30 + m.rng.Intn(31)
	for m.step = 1; m.step <= steps; m.step++ {
		switch r := m.rng.Intn(100); {
		case r < 30:
			m.submitJob()
		case r < 44:
			m.submitGroup()
		case r < 52:
			m.submitSearch()
		case r < 70:
			m.cancel()
		case r < 84:
			m.waitOne()
		case r < 95:
			m.what = "wait for all"
			m.settleAll()
		default:
			m.restart()
		}
		m.observe()
		m.checkFiles()
	}
	m.what = "final drain"
	m.drain()
}

// start brings a process up on the model's directories.
func (m *modelRun) start(startSeq int) {
	m.svc = New(Config{Workers: 1, JobRunners: 1, JournalDir: m.jdir, CacheDir: m.cdir, Chaos: m.inj,
		JobHistory: modelJobHistory, GroupHistory: modelGroupHistory, SearchHistory: modelSearchHistory})
	m.ts = httptest.NewServer(m.svc.Handler())
	m.proc = &modelProc{startSeq: startSeq, entries: map[string]*modelEntry{}, newest: map[string]*modelEntry{}}
}

// do sends one request to the current process and returns its code and body.
func (m *modelRun) do(method, path, body string) (int, []byte) {
	m.t.Helper()
	req, err := http.NewRequest(method, m.ts.URL+path, strings.NewReader(body))
	if err != nil {
		m.fail("%v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		m.fail("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	m.clock++
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		m.fail("%s %s: %v", method, path, err)
	}
	return resp.StatusCode, b.Bytes()
}

// getJSON fetches path and decodes a 200 answer into v.
func (m *modelRun) getJSON(path string, v any) {
	m.t.Helper()
	code, b := m.do(http.MethodGet, path, "")
	if code != http.StatusOK {
		m.fail("GET %s: %d %s", path, code, b)
	}
	if err := json.Unmarshal(b, v); err != nil {
		m.fail("GET %s: %v", path, err)
	}
}

// knobs draws a submission's query string; deadline reports a past
// deadline among them.
func (m *modelRun) knobs(reps int) (query string, deadline bool) {
	query = fmt.Sprintf("?reps=%d&priority=%d", reps, m.rng.Intn(3)-1)
	if m.rng.Intn(7) == 0 {
		query += "&deadline=" + pastDeadline
		deadline = true
	}
	return query, deadline
}

// spec draws a spec and its replicate count: usually a cheap one, now and
// then the slow one, whose runs are long enough for a DELETE to land.
func (m *modelRun) spec() (string, int) {
	if m.rng.Intn(5) == 0 {
		return strings.Replace(slowSpec, `"seed": 5`, fmt.Sprintf(`"seed": %d`, 5+m.rng.Intn(2)), 1), 8 + 4*m.rng.Intn(2)
	}
	return fmt.Sprintf(modelTiny, 1+m.rng.Intn(4)), 1 + m.rng.Intn(2)
}

func (m *modelRun) submitJob() {
	spec, reps := m.spec()
	query, deadline := m.knobs(reps)
	m.what = "submit job " + query
	code, b := m.do(http.MethodPost, "/v1/jobs"+query, spec)
	var st Status
	if (code != http.StatusCreated && code != http.StatusOK) || json.Unmarshal(b, &st) != nil {
		m.fail("answered %d %s", code, b)
	}
	m.see("jobs", st.ID, st.State).deadline = deadline
	m.proc.entries[st.ID].owned = true
}

func (m *modelRun) submitGroup() {
	n := 1 + m.rng.Intn(3)
	var specs []string
	reps := 1 + m.rng.Intn(2)
	for i := 0; i < n; i++ {
		spec, _ := m.spec()
		specs = append(specs, spec)
	}
	query, deadline := m.knobs(reps)
	m.what = fmt.Sprintf("submit group of %d %s", n, query)
	code, b := m.do(http.MethodPost, "/v1/groups"+query, "["+strings.Join(specs, ",")+"]")
	var st GroupStatus
	if (code != http.StatusCreated && code != http.StatusOK) || json.Unmarshal(b, &st) != nil {
		m.fail("answered %d %s", code, b)
	}
	g := m.see("groups", st.ID, st.State)
	g.deadline, g.owned = deadline, true
	for _, js := range st.Jobs {
		if js.ID != "" {
			c := m.see("jobs", js.ID, js.State)
			c.key, c.priority, c.deadline, c.owned = js.Key, js.Priority, deadline, true
		}
	}
}

func (m *modelRun) submitSearch() {
	a := 2 + m.rng.Intn(2)
	m.what = fmt.Sprintf("submit search over seeds %d and %d", a, a+1)
	code, b := m.do(http.MethodPost, "/v1/searches?reps=1", fmt.Sprintf(modelSearch, a, a+1))
	var st SearchStatus
	if (code != http.StatusCreated && code != http.StatusOK) || json.Unmarshal(b, &st) != nil {
		m.fail("answered %d %s", code, b)
	}
	m.see("searches", st.ID, st.State).owned = true
}

// cancel DELETEs an entry the model submitted, one it last saw live when
// there is one, two times in three. Entries a search created are left
// alone: the model cannot order a DELETE after their submission.
func (m *modelRun) cancel() {
	ids := m.ids(func(e *modelEntry) bool { return e.owned && !e.state.Terminal() })
	if len(ids) == 0 || m.rng.Intn(3) == 0 {
		ids = m.ids(func(e *modelEntry) bool { return e.owned })
	}
	if len(ids) == 0 {
		m.what = "cancel (nothing known)"
		return
	}
	e := m.proc.entries[ids[m.rng.Intn(len(ids))]]
	m.what = "DELETE " + e.id
	code, b := m.do(http.MethodDelete, "/v1/"+e.kind+"/"+e.id, "")
	switch code {
	case http.StatusOK:
		e.cancelled = true
		switch e.kind {
		case "groups":
			var st GroupStatus
			if err := json.Unmarshal(b, &st); err != nil {
				m.fail("%v", err)
			}
			for _, js := range st.Jobs {
				if c := m.proc.entries[js.ID]; c != nil {
					c.cancelled = true
				}
			}
		case "searches":
			m.proc.searchCancelled = true
		}
	case http.StatusConflict:
		var env map[string]string
		json.Unmarshal(b, &env)
		_, state, _ := strings.Cut(env["error"], " already ")
		if !State(state).Terminal() {
			m.fail("409 names state %q: %s", state, b)
		}
		m.see(e.kind, e.id, State(state))
	case http.StatusNotFound:
		// Evicted: only settled entries are.
	default:
		m.fail("answered %d %s", code, b)
	}
}

// waitOne waits for one entry the model last saw live to settle.
func (m *modelRun) waitOne() {
	ids := m.ids(func(e *modelEntry) bool { return !e.state.Terminal() })
	if len(ids) == 0 {
		m.what = "wait (nothing live)"
		return
	}
	e := m.proc.entries[ids[m.rng.Intn(len(ids))]]
	m.what = "wait for " + e.id
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		code, b := m.do(http.MethodGet, "/v1/"+e.kind+"/"+e.id, "")
		var st struct{ State State }
		if code == http.StatusNotFound || (code == http.StatusOK && json.Unmarshal(b, &st) == nil && st.State.Terminal()) {
			return
		}
		if time.Now().After(deadline) {
			m.fail("%s never settled: %d %s", e.id, code, b)
		}
	}
}

// ids lists the current process's entries that pass keep, in ID order.
func (m *modelRun) ids(keep func(*modelEntry) bool) []string {
	var out []string
	for id, e := range m.proc.entries {
		if keep(e) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// settleAll waits until every listed entry is terminal and every gauge
// reads 0, then checks the process at rest.
func (m *modelRun) settleAll() {
	for deadline := time.Now().Add(60 * time.Second); !m.atRest(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			m.fail("the service never came to rest")
		}
	}
	m.observe()
	m.checkRest()
}

// atRest reports whether every listed entry is terminal. Live entries are
// never evicted, so the lists show every one.
func (m *modelRun) atRest() bool {
	for _, kind := range []string{"jobs", "groups", "searches"} {
		var sts []struct{ State State }
		m.getJSON("/v1/"+kind, &sts)
		for _, st := range sts {
			if !st.State.Terminal() {
				return false
			}
		}
	}
	for name, v := range m.metrics() {
		if strings.HasSuffix(name, "_queued") || strings.HasSuffix(name, "_running") || strings.HasSuffix(name, "_active") || strings.HasSuffix(name, "_busy") {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// metrics reads the exposition into "name" or "name{labels}" → value.
func (m *modelRun) metrics() map[string]int64 {
	code, b := m.do(http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		m.fail("GET /metrics: %d", code)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			m.fail("metric line %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}

// restart drains the process, checks what it left, and starts the next
// one on the same directories.
func (m *modelRun) restart() {
	m.what = "restart"
	owed := m.drain()
	startSeq := 0
	for _, id := range owed {
		if n, _ := jobSeq(id); n > startSeq {
			startSeq = n
		}
	}
	old := m.proc
	m.start(startSeq)
	m.observe()
	if got := m.metrics()["scda_jobs_recovered_total"]; got != int64(len(owed)) {
		m.fail("recovered %d jobs, the journal held %d: %v", got, len(owed), owed)
	}
	for i, id := range owed {
		if _, err := os.Stat(filepath.Join(m.jdir, id+".json")); err == nil {
			m.fail("recovery left %s.json behind", id)
		}
		was := old.entries[id]
		e := m.proc.entries[fmt.Sprintf("j%06d", startSeq+1+i)]
		if e == nil {
			continue // recovered born done and evicted before the first look
		}
		e.owned = true
		if was != nil {
			e.deadline = was.deadline
			if was.key != "" && (e.key != was.key || e.priority != was.priority) {
				m.fail("%s recovered %s as %s (key %s, priority %d), want key %s, priority %d",
					e.id, id, e.id, e.key, e.priority, was.key, was.priority)
			}
		}
	}
}

// drain closes the current process and checks it at rest and the journal
// it leaves, which holds exactly the work still owed: every job the drain
// cancelled, and nothing done, failed or cancelled by a client. It
// returns the journaled job IDs in recovery order.
func (m *modelRun) drain() []string {
	m.svc.Close()
	m.observe()
	m.checkRest()
	m.ts.Close()
	files, err := os.ReadDir(m.jdir)
	if err != nil {
		m.fail("%v", err)
	}
	var owed []string
	held := map[string]bool{}
	for _, f := range files {
		id, ok := strings.CutSuffix(f.Name(), ".json")
		if n, good := jobSeq(id); !ok || !good || id != fmt.Sprintf("j%06d", n) {
			m.fail("journal holds %q", f.Name())
		}
		owed = append(owed, id)
		held[id] = true
		e := m.proc.entries[id]
		if n, _ := jobSeq(id); n <= m.proc.startSeq || n > m.seq(m.proc.newest["jobs"]) {
			m.fail("journal holds %s, outside this process's jobs", id)
		}
		if e != nil && (e.state == StateDone || e.state == StateFailed || m.clientCancelled(e)) {
			m.fail("journal holds %s, which settled %s (client cancel: %v)", id, e.state, m.clientCancelled(e))
		}
	}
	for _, id := range m.ids(func(e *modelEntry) bool { return e.kind == "jobs" && e.state == StateCancelled }) {
		if e := m.proc.entries[id]; !held[id] && !m.clientCancelled(e) {
			m.fail("the drain cancelled %s but the journal dropped it", id)
		}
	}
	sort.Strings(owed)
	return owed
}

// clientCancelled reports whether a DELETE the model saw answered 200
// reached the job: on it, on its group, or on a search that may own it.
func (m *modelRun) clientCancelled(e *modelEntry) bool {
	return e.cancelled || (!e.owned && m.proc.searchCancelled)
}

// seq is an entry's sequence number; 0 for none.
func (m *modelRun) seq(e *modelEntry) int {
	if e == nil {
		return 0
	}
	n, _ := strconv.Atoi(e.id[1:])
	return n
}

// observe lists every kind and folds what it sees into the model.
func (m *modelRun) observe() {
	m.t.Helper()
	var jobs []Status
	m.getJSON("/v1/jobs", &jobs)
	for _, st := range jobs {
		e := m.see("jobs", st.ID, st.State)
		e.key, e.priority = st.Key, st.Priority
		m.listed("jobs", e)
	}
	var groups []GroupStatus
	m.getJSON("/v1/groups", &groups)
	for _, st := range groups {
		g := m.see("groups", st.ID, st.State)
		m.listed("groups", g)
		g.children = g.children[:0]
		for _, js := range st.Jobs {
			if js.ID != "" {
				c := m.see("jobs", js.ID, js.State)
				c.owned = c.owned || g.owned
				g.children = append(g.children, js.ID)
			}
		}
		if g.state.Terminal() && !g.checked {
			g.checked = true
			m.checkGroup(g, st)
		}
	}
	var searches []SearchStatus
	m.getJSON("/v1/searches", &searches)
	for _, st := range searches {
		m.listed("searches", m.see("searches", st.ID, st.State))
	}
}

// listed records that a list of kind holds e, which must be well-formed
// and minted by this process.
func (m *modelRun) listed(kind string, e *modelEntry) {
	m.t.Helper()
	n, err := strconv.Atoi(e.id[1:])
	if err != nil || e.id != fmt.Sprintf("%c%06d", kind[0], n) || (kind == "jobs" && n <= m.proc.startSeq) {
		m.fail("%s lists ill-formed or reused ID %q", kind, e.id)
	}
	if newest := m.proc.newest[kind]; newest == nil || m.seq(newest) < n {
		m.proc.newest[kind] = e
	}
}

// see records an entry's observed state, checks that a terminal state
// sticks, and runs the one-time checks of a newly terminal entry.
func (m *modelRun) see(kind, id string, state State) *modelEntry {
	m.t.Helper()
	e := m.proc.entries[id]
	if e == nil {
		e = &modelEntry{kind: kind, id: id, state: state, terminalAt: -1}
		m.proc.entries[id] = e
	}
	if e.state.Terminal() && state != e.state {
		m.fail("%s left terminal state %s for %s", id, e.state, state)
	}
	e.state = state
	if state.Terminal() && e.terminalAt < 0 {
		e.terminalAt = m.clock
		m.checkTerminal(e)
	}
	return e
}

// checkTerminal checks a newly terminal entry: its event stream, a job's
// or search's answered DELETE, and a done job's bytes. A group may still
// end done after an answered DELETE when its last result was already in.
func (m *modelRun) checkTerminal(e *modelEntry) {
	m.t.Helper()
	if (e.kind == "jobs" || e.kind == "searches") && e.cancelled && !e.deadline && e.state != StateCancelled {
		m.fail("DELETE on %s was answered 200, yet it ended %s", e.id, e.state)
	}
	if _, ok := m.events(e); !ok || e.kind != "jobs" || e.state != StateDone {
		return
	}
	j, ok := m.svc.Job(e.id)
	if !ok {
		return
	}
	art, ok := j.Artifacts()
	if !ok {
		m.fail("done job %s has no artifacts", e.id)
	}
	want := modelReference(m.t, j.Spec, j.Reps)
	if len(art.files) != len(want.files) {
		m.fail("job %s serves %d artifacts, the reference %d", e.id, len(art.files), len(want.files))
	}
	for name, b := range want.files {
		if !bytes.Equal(art.files[name], b) {
			m.fail("job %s serves a %s that differs from the reference run", e.id, name)
		}
	}
}

// events replays a terminal entry's event stream and checks it numbers
// from 1 and ends with its one terminal event, in the entry's state. ok is
// false when the entry was evicted first.
func (m *modelRun) events(e *modelEntry) (states []State, ok bool) {
	m.t.Helper()
	code, b := m.do(http.MethodGet, "/v1/"+e.kind+"/"+e.id+"/events", "")
	if code == http.StatusNotFound {
		return nil, false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for i := 1; sc.Scan(); i++ {
		var ev struct {
			Seq   int   `json:"seq"`
			State State `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Seq != i {
			m.fail("%s event %d reads %s (%v)", e.id, i, sc.Bytes(), err)
		}
		if len(states) > 0 && states[len(states)-1].Terminal() {
			m.fail("%s has events after its terminal one", e.id)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 || states[len(states)-1] != e.state {
		m.fail("%s, %s, streams %v", e.id, e.state, states)
	}
	return states, true
}

// checkGroup checks a newly terminal group against its children: it
// reported running if and only if one of them ran, and it settled failed
// if a variant failed, else cancelled if one was cancelled or skipped,
// else done.
func (m *modelRun) checkGroup(g *modelEntry, st GroupStatus) {
	m.t.Helper()
	tally := map[State]int{}
	for _, js := range st.Jobs {
		tally[js.State]++
	}
	want := StateDone
	switch {
	case tally[StateFailed] > 0 || st.Error != "":
		want = StateFailed
	case tally[StateCancelled] > 0:
		want = StateCancelled
	}
	if len(st.Jobs) != st.Variants || tally[StateDone] != st.Done || tally[StateFailed] != st.Failed ||
		tally[StateCancelled] != st.Cancelled || st.State != want {
		m.fail("group %s settled %s with %d done, %d failed, %d cancelled over rows %v", g.id, st.State, st.Done, st.Failed, st.Cancelled, tally)
	}
	states, ok := m.events(g)
	if !ok {
		return
	}
	ran := false
	for _, id := range g.children {
		cs, ok := m.events(m.proc.entries[id])
		if !ok {
			return // a child was evicted: its history is gone
		}
		ran = ran || hasState(cs, StateRunning)
	}
	if hasState(states, StateRunning) != ran {
		m.fail("group %s streams %v, yet a child ran: %v", g.id, states, ran)
	}
}

func hasState(states []State, want State) bool {
	for _, s := range states {
		if s == want {
			return true
		}
	}
	return false
}

// checkRest checks a process at rest: every gauge reads 0, the terminal
// counters equal the model's tallies, and each ledger keeps its bound.
func (m *modelRun) checkRest() {
	m.t.Helper()
	met := m.metrics()
	for _, gauge := range []string{"scda_jobs_queued", "scda_jobs_running", "scda_job_runners_busy", "scda_groups_active", "scda_searches_active"} {
		if met[gauge] != 0 {
			m.fail("%s reads %d at rest", gauge, met[gauge])
		}
	}
	bounds := map[string]int{"jobs": modelJobHistory, "groups": modelGroupHistory, "searches": modelSearchHistory}
	for kind, bound := range bounds {
		// Entries minted by this process: IDs are sequential, and the
		// newest is never evicted.
		minted := m.seq(m.proc.newest[kind])
		if kind == "jobs" && minted > 0 {
			minted -= m.proc.startSeq
		}
		seen := map[State]int{}
		known, total := 0, 0
		for _, e := range m.proc.entries {
			if e.kind == kind && e.state.Terminal() {
				seen[e.state]++
				known++
			}
		}
		family := "scda_" + kind + "_done_total"
		for _, s := range []State{StateDone, StateFailed, StateCancelled} {
			c := met[family+`{state="`+string(s)+`"}`]
			if c < int64(seen[s]) || c > int64(seen[s]+minted-known) {
				m.fail("%s{state=%q} = %d, the model saw %d and %d of %d unseen", family, s, c, seen[s], minted-known, minted)
			}
			total += int(c)
		}
		if total != minted {
			m.fail("%s sums to %d, this process minted %d", family, total, minted)
		}
		m.checkBound(kind, bound)
	}
}

// checkBound checks one ledger at rest. Each publication and each
// settlement evicts settled entries other than the newest, oldest first,
// until the total weight is within the bound, and at rest every entry has
// settled. So the ledger is within its bound, or holds only its newest
// entry.
func (m *modelRun) checkBound(kind string, bound int) {
	m.t.Helper()
	var sts []struct {
		ID       string
		Variants int
	}
	m.getJSON("/v1/"+kind, &sts)
	total := 0
	for _, st := range sts {
		total += max(st.Variants, 1)
	}
	if total > bound && len(sts) > 1 {
		m.fail("%s ledger weighs %d at rest, over its bound %d, in %d entries", kind, total, bound, len(sts))
	}
}

// checkFiles checks that nothing outside the journal and cache
// directories moved, and that the journal holds only entries and their
// in-flight temporary files.
func (m *modelRun) checkFiles() {
	m.t.Helper()
	files, err := os.ReadDir(m.root)
	if err != nil {
		m.fail("%v", err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if got := strings.Join(names, " "); got != "cache journal sentinel" && got != "journal sentinel" {
		m.fail("the service's parent directory holds %v", names)
	}
	if b, err := os.ReadFile(m.sent); err != nil || string(b) != "untouched\n" {
		m.fail("the sentinel changed: %q %v", b, err)
	}
}

// modelRefs memoizes reference artifacts by cache key: render of a fresh
// scenario.RunReplicatedCtx, outside any service.
var modelRefs struct {
	sync.Mutex
	pool *runner.Pool
	art  map[string]*artifacts
}

// modelReference returns the reference artifacts of spec at reps.
func modelReference(t *testing.T, spec *scenario.Spec, reps int) *artifacts {
	t.Helper()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%s-r%d", hash, reps)
	modelRefs.Lock()
	defer modelRefs.Unlock()
	if a := modelRefs.art[key]; a != nil {
		return a
	}
	if modelRefs.art == nil {
		modelRefs.pool, modelRefs.art = runner.New(1), map[string]*artifacts{}
	}
	r, err := scenario.RunReplicatedCtx(context.Background(), spec, reps, modelRefs.pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := render(r, reps)
	if err != nil {
		t.Fatal(err)
	}
	modelRefs.art[key] = a
	return a
}
