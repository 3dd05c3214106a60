package service

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// update rewrites testdata/wire.golden from the current handler.
var update = flag.Bool("update", false, "rewrite testdata/wire.golden")

// wireGolden pins the single-node HTTP surface byte for byte. Rewrite it
// with `go test ./internal/service -run TestWireGolden -update` only for a
// change that is meant to move the wire format, and say why in the change
// log.
const wireGolden = "testdata/wire.golden"

// wireInlineMax is the largest body the golden file holds verbatim;
// longer ones (the group result document) are pinned by length and
// SHA-256 so the file stays reviewable.
const wireInlineMax = 4096

// pastDeadline is an absolute deadline long gone: a job submitted with it
// fails at its first replicate boundary with a fixed message, so the
// failed lifecycle is as deterministic as the done one.
const pastDeadline = "2000-01-01T00:00:00Z"

// TestWireGolden replays one single-node session whose responses do not
// depend on timing and compares every status code, Content-Type, Location
// and body with testdata/wire.golden: submissions of each kind with
// ?wait=true, a cached resubmit and a deadline-failed job and group, the
// list, status, event and result endpoints, the 400, 404, 405, 409 and 413
// error envelopes, and the final /metrics exposition.
func TestWireGolden(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1})
	failSpec := strings.Replace(testSpec, `"seed": 3`, `"seed": 4`, 1)
	if failSpec == testSpec {
		t.Fatal("testSpec no longer carries the seed line")
	}
	oversized := func(limit int, body string) string { return strings.Repeat(" ", limit+1) + body }
	steps := []struct{ method, path, body string }{
		{"POST", "/v1/jobs?wait=true", testSpec},
		{"POST", "/v1/jobs?wait=true", testSpec},
		{"POST", "/v1/groups?wait=true", sweepSpec},
		{"POST", "/v1/searches?wait=true", searchSpec},
		{"POST", "/v1/jobs?wait=true&deadline=" + pastDeadline, failSpec},
		{"POST", "/v1/groups?wait=true&deadline=" + pastDeadline, "[" + failSpec + "]"},

		{"GET", "/v1/jobs", ""},
		{"GET", "/v1/groups", ""},
		{"GET", "/v1/searches", ""},
		{"GET", "/v1/jobs/j000001", ""},
		{"GET", "/v1/groups/g000001", ""},
		{"GET", "/v1/searches/s000001", ""},

		{"GET", "/v1/jobs/j000001/events", ""},
		{"GET", "/v1/jobs/j000002/events", ""},
		{"GET", "/v1/jobs/j000008/events", ""},
		{"GET", "/v1/groups/g000001/events", ""},
		{"GET", "/v1/groups/g000003/events", ""},
		{"GET", "/v1/searches/s000001/events", ""},

		{"GET", "/v1/jobs/j000001/result", ""},
		{"GET", "/v1/jobs/j000002/result?csv=summary", ""},
		{"GET", "/v1/jobs/j000001/result?csv=throughput", ""},
		{"GET", "/v1/groups/g000001/result", ""},
		{"GET", "/v1/groups/g000001/result?csv=summary", ""},
		{"GET", "/v1/groups/g000001/result?csv=fct-cdf", ""},
		{"GET", "/v1/searches/s000001/result", ""},
		{"GET", "/v1/searches/s000001/result?csv=trajectory", ""},

		{"POST", "/v1/jobs", "{not json"},
		{"POST", "/v1/jobs?reps=-1", testSpec},
		{"POST", "/v1/jobs?reps=65", testSpec},
		{"POST", "/v1/jobs?priority=abc", testSpec},
		{"POST", "/v1/jobs?deadline=soon", testSpec},
		{"POST", "/v1/jobs", sweepSpec},
		{"POST", "/v1/jobs", searchSpec},
		{"POST", "/v1/groups", "   "},
		{"POST", "/v1/groups", "[" + testSpec + "] garbage"},
		{"POST", "/v1/groups", searchSpec},
		{"POST", "/v1/searches", testSpec},
		{"POST", "/v1/searches?deadline=30s", searchSpec},

		{"GET", "/v1/jobs/j999999", ""},
		{"GET", "/v1/groups/g999999", ""},
		{"GET", "/v1/searches/s999999", ""},
		{"GET", "/v1/jobs/", ""},
		{"GET", "/v1/jobs/j000001/bogus", ""},
		{"GET", "/v1/jobs/j000001/artifacts", ""},
		{"GET", "/v1/groups/g000001/artifacts", ""},
		{"GET", "/v1/searches/s000001/artifacts", ""},
		{"GET", "/v1/jobs/j000001/result?csv=afct", ""},
		{"GET", "/v1/groups/g000001/result?csv=afct", ""},
		{"GET", "/v1/searches/s000001/result?csv=summary", ""},
		{"GET", "/v1/nope", ""},

		{"PUT", "/v1/jobs", ""},
		{"PUT", "/v1/groups", ""},
		{"DELETE", "/v1/searches", ""},
		{"PATCH", "/v1/jobs/j000001", ""},
		{"PATCH", "/v1/groups/g000001", ""},
		{"PATCH", "/v1/searches/s000001", ""},
		{"POST", "/v1/jobs/j000001/result", ""},
		{"POST", "/v1/groups/g000001/result", ""},
		{"POST", "/v1/searches/s000001/result", ""},
		{"DELETE", "/v1/jobs/j000001/events", ""},
		{"DELETE", "/v1/groups/g000001/events", ""},
		{"DELETE", "/v1/searches/s000001/events", ""},

		{"DELETE", "/v1/jobs/j000001", ""},
		{"DELETE", "/v1/groups/g000001", ""},
		{"DELETE", "/v1/searches/s000001", ""},
		{"GET", "/v1/jobs/j000008/result", ""},
		{"GET", "/v1/groups/g000003/result", ""},

		{"POST", "/v1/jobs", oversized(maxSpecBytes, testSpec)},
		{"POST", "/v1/groups", oversized(maxGroupBytes, sweepSpec)},
		{"POST", "/v1/searches", oversized(maxSpecBytes, searchSpec)},
	}

	var out bytes.Buffer
	for _, st := range steps {
		fmt.Fprintf(&out, "### %s %s\n", st.method, st.path)
		recordExchange(t, &out, ts.URL, st.method, st.path, st.body)
	}
	// Every gauge drops as its entry settles, before the entry's done
	// channel closes; this wait guards that the exposition is a settled
	// snapshot.
	for deadline := time.Now().Add(10 * time.Second); svc.met.jobs.running.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("a job runner never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(&out, "### GET /metrics\n")
	recordExchange(t, &out, ts.URL, "GET", "/metrics", "")

	if *update {
		if err := os.WriteFile(wireGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			g, w := "<eof>", "<eof>"
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", wireGolden, i+1, g, w)
			}
		}
	}
}

// recordExchange sends one request and appends its status code,
// Content-Type, Location and body (verbatim, or digested when long) to out.
func recordExchange(t *testing.T, out *bytes.Buffer, base, method, path, body string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "%d %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	if loc := resp.Header.Get("Location"); loc != "" {
		fmt.Fprintf(out, "Location: %s\n", loc)
	}
	if len(b) > wireInlineMax {
		fmt.Fprintf(out, "body: %d bytes, sha256 %x\n\n", len(b), sha256.Sum256(b))
		return
	}
	fmt.Fprintf(out, "body: %d bytes\n%s\n", len(b), b)
}
