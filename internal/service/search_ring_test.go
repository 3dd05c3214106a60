// Ring-mode acceptance for the adaptive search engine: the search runs on
// whichever peer accepted it, but its evaluations are ordinary jobs that
// fan across the fleet's content-addressed ring — so two peers running
// the same search converge to the same incumbent while the fleet computes
// each distinct variant exactly once.
package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/service/servicetest"
)

// ringSearchSpec is a two-round halving search over four discrete rscale
// values: round one evaluates all four at one replicate, round two the
// surviving two at two replicates — six distinct (variant, reps) cache
// keys fleet-wide.
const ringSearchSpec = `{
  "version": 1,
  "name": "ring-search",
  "seed": 11,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "search": {"metric": "afct", "parameter": "system.rscale",
             "values": [1e7, 3e7, 5e7, 9e7], "strategy": "halving"}
}`

// postSearchTo submits a search spec to one peer and decodes the status.
func postSearchTo(t *testing.T, base, body, query string) (service.SearchStatus, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/searches"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var st service.SearchStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
	}
	return st, resp.StatusCode
}

func TestRingSearchConvergesOnceFleetWide(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-peer search e2e")
	}
	fleet := servicetest.StartRing(t, 3, nil)

	// First submission, entering at peer 0: everything computes fresh.
	st1, code := postSearchTo(t, fleet.Peers[0].URL, ringSearchSpec, "?wait=true")
	if code != http.StatusOK || st1.State != service.StateDone {
		t.Fatalf("search via peer 0: %d %+v", code, st1)
	}
	if st1.Rounds != 2 || st1.Evaluations != 6 || st1.Incumbent == nil {
		t.Fatalf("search status %+v, want 2 rounds / 6 evaluations and an incumbent", st1)
	}
	if nodeOf(t, st1.ID) != 0 {
		t.Fatalf("search %s not minted by its entry peer", st1.ID)
	}

	// The fleet computed each distinct (variant, reps) key exactly once:
	// the peer-summed miss counter equals the evaluation count, however the
	// ring happened to spread them.
	misses := func() (total int64) {
		for _, p := range fleet.Peers {
			total += metricValue(t, p.URL, "scda_cache_misses_total")
		}
		return total
	}
	after1 := misses()
	if after1 != int64(st1.Evaluations) {
		t.Fatalf("fleet-wide misses %d after first search, want %d (one per distinct variant)", after1, st1.Evaluations)
	}

	// Any peer can answer for the search — ID routing proxies to its home.
	if b, code := getBytes(t, fleet.Peers[2].URL+"/v1/searches/"+st1.ID); code != http.StatusOK || !bytes.Contains(b, []byte(st1.ID)) {
		t.Fatalf("search status via peer 2: %d %s", code, b)
	}

	// Same search through a different entry peer: same trajectory, same
	// incumbent, zero fresh simulation work anywhere in the fleet.
	st2, code := postSearchTo(t, fleet.Peers[1].URL, ringSearchSpec, "?wait=true")
	if code != http.StatusOK || st2.State != service.StateDone {
		t.Fatalf("search via peer 1: %d %+v", code, st2)
	}
	if nodeOf(t, st2.ID) != 1 {
		t.Fatalf("search %s not minted by its entry peer", st2.ID)
	}
	if st2.Evaluations != st1.Evaluations || st2.CacheHits != st2.Evaluations {
		t.Fatalf("replayed search %+v, want %d evaluations all served from the fleet cache", st2, st1.Evaluations)
	}
	if after2 := misses(); after2 != after1 {
		t.Fatalf("replay computed fresh work: fleet-wide misses %d -> %d", after1, after2)
	}
	if st1.Incumbent == nil || st2.Incumbent == nil || *st1.Incumbent != *st2.Incumbent {
		t.Fatalf("entry peers disagree on the incumbent: %+v vs %+v", st1.Incumbent, st2.Incumbent)
	}

	// And the full result documents and trajectories are byte-identical.
	res1, code1 := getBytes(t, fleet.Peers[0].URL+"/v1/searches/"+st1.ID+"/result")
	res2, code2 := getBytes(t, fleet.Peers[1].URL+"/v1/searches/"+st2.ID+"/result")
	if code1 != http.StatusOK || code2 != http.StatusOK || !bytes.Equal(res1, res2) {
		t.Fatalf("results differ across entry peers (%d, %d):\n%s\nvs\n%s", code1, code2, res1, res2)
	}
	traj1, _ := getBytes(t, fleet.Peers[0].URL+"/v1/searches/"+st1.ID+"/result?csv=trajectory")
	traj2, _ := getBytes(t, fleet.Peers[1].URL+"/v1/searches/"+st2.ID+"/result?csv=trajectory")
	if !bytes.Equal(traj1, traj2) {
		t.Fatalf("trajectories differ across entry peers:\n%s\nvs\n%s", traj1, traj2)
	}
}

// TestRingRejectsSearchSpecOnJobsBeforeRouting: a search spec POSTed to
// /v1/jobs is refused with 400 and the /v1/searches hint by whichever peer
// it enters, before ownership is consulted — so it is never forwarded to
// its owner, and with the owner down it is never counted as a local
// fallback either.
func TestRingRejectsSearchSpecOnJobsBeforeRouting(t *testing.T) {
	fleet := servicetest.StartRing(t, 3, nil)
	owner := fleet.OwnerIndex(specHash(t, ringSearchSpec))
	reject := func(entry *servicetest.Peer) {
		t.Helper()
		resp, err := http.Post(entry.URL+"/v1/jobs", "application/json", strings.NewReader(ringSearchSpec))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("/v1/searches")) {
			t.Fatalf("search spec on n%d /v1/jobs: %d %s, want 400 pointing at /v1/searches", entry.Index, resp.StatusCode, b)
		}
	}
	counters := []string{`scda_ring_forwards_total{kind="submit"}`, "scda_ring_local_fallbacks_total"}
	for _, p := range fleet.Peers {
		reject(p)
	}
	for _, p := range fleet.Peers {
		for _, name := range counters {
			if v := metricValue(t, p.URL, name); v != 0 {
				t.Errorf("n%d: %s = %d after rejected submissions, want 0", p.Index, name, v)
			}
		}
	}

	fleet.Peers[owner].Crash()
	fleet.ProbeAll(2)
	entry := fleet.Peers[(owner+1)%3]
	reject(entry)
	for _, name := range counters {
		if v := metricValue(t, entry.URL, name); v != 0 {
			t.Errorf("n%d with owner n%d down: %s = %d, want 0", entry.Index, owner, name, v)
		}
	}
}
