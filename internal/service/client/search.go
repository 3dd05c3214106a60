package client

import (
	"context"
	"net/http"
	"net/url"
)

// SearchVariant is the client-side view of one evaluated search variant.
type SearchVariant struct {
	// Name is the synthesized variant scenario name; Value the domain
	// value it was evaluated at.
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Reps is the replicate count behind the metrics.
	Reps int `json:"reps"`
	// Objective is the goal metric's value; Feasible whether every
	// constraint held.
	Objective float64 `json:"objective"`
	Feasible  bool    `json:"feasible"`
	// Reused marks metrics carried over from an earlier round; Kept
	// whether the variant stayed in contention after pruning.
	Reused bool `json:"reused,omitempty"`
	Kept   bool `json:"kept"`
}

// SearchStatus is the client-side view of a search status document.
type SearchStatus struct {
	// ID is the search handle; Name the base scenario name.
	ID   string `json:"id"`
	Name string `json:"name"`
	// State is the lifecycle state: queued, running, done, failed,
	// cancelled.
	State string `json:"state"`
	// Strategy, Objective, Metric and Parameter echo the compiled search.
	Strategy  string `json:"strategy"`
	Objective string `json:"objective"`
	Metric    string `json:"metric"`
	Parameter string `json:"parameter"`
	// Reps and Priority echo the submission knobs.
	Reps     int `json:"reps"`
	Priority int `json:"priority"`
	// Rounds, Evaluations, CacheHits and Pruned count the work so far; a
	// replayed identical search reports CacheHits == Evaluations.
	Rounds      int `json:"rounds"`
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cacheHits"`
	Pruned      int `json:"pruned"`
	// Incumbent is the best feasible variant so far.
	Incumbent *SearchVariant `json:"incumbent,omitempty"`
	// Error carries the failure reason for a failed search.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the search status is final.
func (s SearchStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// SearchOpts carries the search submission knobs; zero values are
// omitted. Searches take no deadline — the spec's maxSeconds budget is
// the supported wall-clock valve.
type SearchOpts struct {
	// Reps is the base replicate count per evaluation (?reps=).
	Reps int
	// Priority mirrors ?priority=.
	Priority int
	// Wait submits with ?wait=true, blocking until the search is
	// terminal.
	Wait bool
}

// query renders the options.
func (o SearchOpts) query() url.Values {
	return SubmitOpts{Reps: o.Reps, Priority: o.Priority, Wait: o.Wait}.query()
}

// SubmitSearch posts one scenario spec with a search block (raw JSON
// bytes) to /v1/searches, retrying through shed load, and returns the
// search status.
func (c *Client) SubmitSearch(ctx context.Context, spec []byte, opts SearchOpts) (SearchStatus, error) {
	return call[SearchStatus](ctx, c, http.MethodPost, "/v1/searches", opts.query(), spec, "search status")
}

// Search fetches one search's status.
func (c *Client) Search(ctx context.Context, id string) (SearchStatus, error) {
	return call[SearchStatus](ctx, c, http.MethodGet, "/v1/searches/"+id, nil, nil, "search status")
}

// Searches lists every search the service remembers, in submission
// order.
func (c *Client) Searches(ctx context.Context) ([]SearchStatus, error) {
	return call[[]SearchStatus](ctx, c, http.MethodGet, "/v1/searches", nil, nil, "search list")
}

// WaitSearch polls the search until it reaches a terminal state, backing
// off between polls like WaitJob.
func (c *Client) WaitSearch(ctx context.Context, id string) (SearchStatus, error) {
	return poll(ctx, c, func() (SearchStatus, error) { return c.Search(ctx, id) })
}

// SearchResult fetches a done search's result: the deterministic JSON
// document by default, or the round-by-round trajectory CSV with csv set
// to "trajectory".
func (c *Client) SearchResult(ctx context.Context, id, csv string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/searches/"+id+"/result", csvQuery(csv), nil)
}

// CancelSearch DELETEs the search; the cancel fans out to the in-flight
// round's jobs. The returned status reflects the cancellation.
func (c *Client) CancelSearch(ctx context.Context, id string) (SearchStatus, error) {
	return call[SearchStatus](ctx, c, http.MethodDelete, "/v1/searches/"+id, nil, nil, "search status")
}
