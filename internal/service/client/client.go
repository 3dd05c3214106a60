// Package client is the retrying HTTP client for scda-serve: the
// robustness layer's consumer-side half. The server sheds overload with
// 429 + Retry-After and cuts jobs at deadlines; this package turns those
// honest rejections back into eventual success, with capped exponential
// backoff, deterministic jitter, and a total retry budget so a client
// under sustained overload gives up in bounded time instead of hammering
// or hanging.
//
// It deliberately does not import internal/service: the wire types here
// are the client's own view of the JSON API, so the service's tests can
// exercise the client against a live handler without an import cycle,
// and the package doubles as documentation of the over-the-wire
// contract.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Status is the client-side view of a job status document.
type Status struct {
	// ID is the job handle; Name the scenario; Key the result-cache key.
	ID   string `json:"id"`
	Name string `json:"name"`
	Key  string `json:"key"`
	// State is the lifecycle state: queued, running, done, failed,
	// cancelled.
	State string `json:"state"`
	// Priority, Reps and RepsDone echo the submission knobs and progress.
	Priority int `json:"priority"`
	Reps     int `json:"reps"`
	RepsDone int `json:"repsDone"`
	// CacheHit reports a result served without recomputation.
	CacheHit bool `json:"cacheHit"`
	// Error carries the failure reason for a failed job.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// APIError is a non-2xx response from the service, preserving the pieces
// retry logic and callers need: the status code, the server's error
// message, and the Retry-After hint on 429s.
type APIError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's {"error": ...} text (or the raw body).
	Message string
	// RetryAfter is the parsed Retry-After hint; zero when absent.
	RetryAfter time.Duration
}

// Error renders the code and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("scda-serve: %d: %s", e.Code, e.Message)
}

// Retryable reports whether the request that produced this error may
// succeed later: shed load (429) and server-side trouble (5xx) are
// retryable, client mistakes (4xx) are not.
func (e *APIError) Retryable() bool {
	return e.Code == http.StatusTooManyRequests || e.Code >= 500
}

// RetryPolicy shapes the backoff loop. The zero value selects the
// defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts bounds tries per request, first attempt included
	// (0 = 6; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = 100ms); each retry doubles
	// it, capped at MaxDelay (0 = 5s). A server Retry-After overrides the
	// computed delay — the server knows its queue better than the curve.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Budget caps the *total* time spent sleeping between retries across
	// one request (0 = 30s): once spent, the next failure is final. This
	// is the give-up knob — attempts bound the count, the budget bounds
	// the wall clock.
	Budget time.Duration
	// Seed drives the jitter PRNG so tests replay exact backoff
	// sequences. The zero seed is a fixed default, not randomness:
	// determinism is the point.
	Seed int64
}

// withDefaults resolves the zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 6
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Budget == 0 {
		p.Budget = 30 * time.Second
	}
	return p
}

// Client talks to scda-serve with retries — one instance (New) or a
// coordinator-mode fleet (NewMulti), where a failed attempt rotates to
// the next endpoint before retrying. Create with New or NewMulti; the
// zero value is not usable.
type Client struct {
	bases []string
	http  *http.Client

	policy RetryPolicy

	// sleep pauses between retries; tests replace it to run backoff
	// schedules instantly while still observing the requested delays.
	sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
	cur int // index into bases of the endpoint attempts currently use
}

// Option customizes a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test servers).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetryPolicy substitutes the retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// WithSleep substitutes the inter-retry sleep — the test hook that makes
// backoff schedules observable without waiting them out.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) { c.sleep = fn }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	return NewMulti([]string{baseURL}, opts...)
}

// NewMulti returns a client over several equivalent endpoints — the
// peers of a coordinator-mode fleet, where any node accepts any request
// (submissions route internally, remote IDs proxy). Requests stick to
// one endpoint until an attempt fails with a transport error or a
// retryable status; the retry then moves to the next endpoint
// round-robin, so a dead or draining peer costs one failed attempt, not
// a failed request. An empty list panics: it is a programming error,
// same as New("").
func NewMulti(baseURLs []string, opts ...Option) *Client {
	if len(baseURLs) == 0 {
		panic("client: NewMulti with no endpoints")
	}
	bases := make([]string, len(baseURLs))
	for i, u := range baseURLs {
		bases[i] = strings.TrimRight(u, "/")
	}
	c := &Client{
		bases:  bases,
		http:   &http.Client{Timeout: 2 * time.Minute},
		policy: RetryPolicy{},
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	c.policy = c.policy.withDefaults()
	c.rng = rand.New(rand.NewSource(c.policy.Seed))
	return c
}

// endpoint returns the base URL attempts currently use.
func (c *Client) endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.cur]
}

// rotate moves to the next endpoint after a failed attempt; a no-op
// with a single endpoint.
func (c *Client) rotate() {
	c.mu.Lock()
	c.cur = (c.cur + 1) % len(c.bases)
	c.mu.Unlock()
}

// jitter scales d to [d/2, d): full-magnitude synchronized retries are
// what turns one overload into a retry storm, so every client spreads
// its schedule.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// do runs one HTTP request through the retry loop. body is re-sent on
// every attempt (byte slices, not readers, so replays are safe). The
// caller owns closing nothing: the full response body is read and
// returned.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte) ([]byte, error) {
	suffix := path
	if len(query) > 0 {
		suffix += "?" + query.Encode()
	}
	var lastErr error
	delay := c.policy.BaseDelay
	var spent time.Duration
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.jitter(delay)
			if ra := retryAfterOf(lastErr); ra > 0 {
				wait = ra
			}
			if spent+wait > c.policy.Budget {
				return nil, fmt.Errorf("retry budget %s exhausted after %d attempts: %w", c.policy.Budget, attempt, lastErr)
			}
			if err := c.sleep(ctx, wait); err != nil {
				return nil, err
			}
			spent += wait
			if delay *= 2; delay > c.policy.MaxDelay {
				delay = c.policy.MaxDelay
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.endpoint()+suffix, rd)
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			// Transport errors (connection refused or reset — a restarting
			// or chaos-dropped server) are retryable by nature.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			c.rotate()
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			c.rotate()
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return b, nil
		}
		apiErr := &APIError{Code: resp.StatusCode, Message: errorMessage(b), RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		if !apiErr.Retryable() {
			return nil, apiErr
		}
		lastErr = apiErr
		c.rotate()
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.policy.MaxAttempts, lastErr)
}

// retryAfterOf extracts a server Retry-After hint from a retryable error.
func retryAfterOf(err error) time.Duration {
	if apiErr, ok := err.(*APIError); ok {
		return apiErr.RetryAfter
	}
	return 0
}

// parseRetryAfter reads the whole-seconds form of the header the service
// emits (the HTTP-date form is not produced by scda-serve).
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// errorMessage unwraps the service's {"error": "..."} envelope, falling
// back to the raw body.
func errorMessage(b []byte) string {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &env) == nil && env.Error != "" {
		return env.Error
	}
	return strings.TrimSpace(string(b))
}

// SubmitOpts carries the submission query knobs; zero values are omitted.
type SubmitOpts struct {
	// Reps and Priority mirror ?reps= and ?priority=.
	Reps     int
	Priority int
	// Deadline mirrors ?deadline= verbatim (a duration like "30s" or an
	// RFC 3339 time).
	Deadline string
	// Wait submits with ?wait=true, blocking until the job is terminal.
	Wait bool
}

// query renders the options.
func (o SubmitOpts) query() url.Values {
	q := url.Values{}
	if o.Reps > 0 {
		q.Set("reps", strconv.Itoa(o.Reps))
	}
	if o.Priority != 0 {
		q.Set("priority", strconv.Itoa(o.Priority))
	}
	if o.Deadline != "" {
		q.Set("deadline", o.Deadline)
	}
	if o.Wait {
		q.Set("wait", "true")
	}
	return q
}

// call runs one request through do and decodes the JSON answer; what
// names the document in a decoding error.
func call[T any](ctx context.Context, c *Client, method, path string, query url.Values, body []byte, what string) (T, error) {
	var v, zero T
	b, err := c.do(ctx, method, path, query, body)
	if err != nil {
		return zero, err
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return zero, fmt.Errorf("decoding %s: %w", what, err)
	}
	return v, nil
}

// poll fetches a status until it is terminal, backing off between polls
// (jittered BaseDelay..MaxDelay — status polls are cheap but not free).
func poll[T interface{ Terminal() bool }](ctx context.Context, c *Client, fetch func() (T, error)) (T, error) {
	delay := c.policy.BaseDelay
	for {
		st, err := fetch()
		if err != nil || st.Terminal() {
			return st, err
		}
		if err := c.sleep(ctx, c.jitter(delay)); err != nil {
			var zero T
			return zero, err
		}
		if delay *= 2; delay > c.policy.MaxDelay {
			delay = c.policy.MaxDelay
		}
	}
}

// csvQuery renders a result fetch's optional ?csv= selector.
func csvQuery(csv string) url.Values {
	q := url.Values{}
	if csv != "" {
		q.Set("csv", csv)
	}
	return q
}

// Submit posts one scenario spec (raw JSON bytes) to /v1/jobs, retrying
// through shed load, and returns the job status.
func (c *Client) Submit(ctx context.Context, spec []byte, opts SubmitOpts) (Status, error) {
	return call[Status](ctx, c, http.MethodPost, "/v1/jobs", opts.query(), spec, "job status")
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (Status, error) {
	return call[Status](ctx, c, http.MethodGet, "/v1/jobs/"+id, nil, nil, "job status")
}

// Jobs lists every job the service remembers, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]Status, error) {
	return call[[]Status](ctx, c, http.MethodGet, "/v1/jobs", nil, nil, "job list")
}

// WaitJob polls the job until it reaches a terminal state, backing off
// between polls.
func (c *Client) WaitJob(ctx context.Context, id string) (Status, error) {
	return poll(ctx, c, func() (Status, error) { return c.Job(ctx, id) })
}

// Result fetches a done job's result: the JSON document by default, or
// one CSV artifact with csv set ("summary", "throughput", ...).
func (c *Client) Result(ctx context.Context, id, csv string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", csvQuery(csv), nil)
}

// Cancel DELETEs the job; the returned status reflects the cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	return call[Status](ctx, c, http.MethodDelete, "/v1/jobs/"+id, nil, nil, "job status")
}

// Ready probes /readyz, reporting whether the service is accepting
// traffic. Transport errors report not-ready rather than failing: the
// question "is it up?" expects no for a dead server.
func (c *Client) Ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint()+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Metrics fetches the Prometheus text exposition — the chaos harness
// reads counters like scda_job_panics_total through this.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil)
	return string(b), err
}
