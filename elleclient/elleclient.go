// Package elleclient is the typed Go client for elled, the HTTP
// checking service (internal/service, docs/SERVICE.md). It wraps the
// v1 wire protocol — create a job, feed history chunks (JSON lines or
// ellebin), poll status, fetch the report, cancel — in methods that
// return Go values and typed errors instead of raw responses:
//
//	c := elleclient.New("http://127.0.0.1:8866")
//	job, err := c.Create(ctx, elleclient.CreateRequest{Workload: "bank"})
//	_, err = c.Feed(ctx, job.ID, chunk)           // JSON lines
//	rep, err := c.Report(ctx, job.ID)             // byte-identical to `elle`
//
// Backpressure is handled inside the client: a 429 (at_capacity when
// creating, shard_busy when feeding) is retried with capped backoff,
// honoring the server's Retry-After. Both refusals mean "nothing
// happened" — the job was not created, the chunk was not ingested — so
// the retry is always safe. Every other non-2xx surfaces as an *APIError
// carrying the service's stable error code (elle.ServiceCode*), so
// callers branch on err.Code, not on message text.
//
// The client also implements the resume protocol for WAL-backed
// servers: the service journals every acked chunk, so after a crash and
// restart the job's status reports how many chunks survived. Resume
// compares that count against what the caller sent and re-feeds only
// the difference. See docs/SERVICE.md, "Crash resume".
package elleclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client speaks elled's v1 API. The zero retry fields mean: up to 8
// retries per call on 429, each sleep capped at 2 seconds.
type Client struct {
	base string
	// HTTPClient is the transport; http.DefaultClient when nil.
	HTTPClient *http.Client
	// RetryLimit caps how many times one call retries a 429 before
	// surfacing it as an error. 0 means 8; negative disables retries.
	RetryLimit int
	// MaxBackoff caps each retry sleep, whatever Retry-After asks for.
	// 0 means 2 seconds.
	MaxBackoff time.Duration
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8866").
func New(base string) *Client {
	return &Client{base: strings.TrimSuffix(base, "/")}
}

// APIError is one service error envelope plus the HTTP status it rode
// in on. Code is one of the service's stable snake_case codes
// (docs/SERVICE.md lists them; the elle facade exports them as
// ServiceCode* constants).
type APIError struct {
	Status      int
	Code        string
	Message     string
	RetryAfterS int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("elled: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// IsCode reports whether err is (or wraps) an *APIError with the given
// code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// CreateRequest parameterizes a job, mirroring POST /v1/jobs. Zero
// values take the server's defaults (list-append, strict-serializable,
// one worker per CPU, unbounded memory).
type CreateRequest struct {
	Workload     string `json:"workload,omitempty"`
	Model        string `json:"model,omitempty"`
	Parallelism  int    `json:"parallelism,omitempty"`
	MemoryBudget int    `json:"memory_budget,omitempty"`
}

// Anomaly is one finding, provisional (status, chunk deltas) or final
// (report). The shape matches the service's report JSON.
type Anomaly struct {
	Type        string `json:"type"`
	Key         string `json:"key,omitempty"`
	Txns        []int  `json:"txns,omitempty"`
	Cycle       string `json:"cycle,omitempty"`
	K           int    `json:"k,omitempty"`
	Explanation string `json:"explanation,omitempty"`
}

// Memory is a budgeted job's resident/retired counters (status only).
type Memory struct {
	Budget       int    `json:"budget"`
	ResidentOps  int    `json:"resident_ops"`
	RetiredOps   int    `json:"retired_ops"`
	Segments     int    `json:"segments"`
	RetiredBytes int    `json:"retired_bytes"`
	SpilledBytes int64  `json:"spilled_bytes"`
	RetiredKeys  int    `json:"retired_keys"`
	Degraded     string `json:"degraded"`
}

// Job is a job's status: the wire shape of GET /v1/jobs/{id}.
type Job struct {
	ID        string    `json:"id"`
	State     string    `json:"state"` // "accepting", "done", "failed"
	Workload  string    `json:"workload"`
	Model     string    `json:"model"`
	CreatedAt time.Time `json:"created_at"`
	Ops       int       `json:"ops"`
	// Chunks counts the uploads the server has accepted — the resume
	// protocol's cursor.
	Chunks    int       `json:"chunks"`
	WALBytes  int64     `json:"wal_bytes"`
	Resumed   bool      `json:"resumed"`
	Memory    *Memory   `json:"memory"`
	Anomalies []Anomaly `json:"anomalies"`
	Error     string    `json:"error"`
}

// Delta is one accepted chunk's outcome: running totals plus any
// anomalies this chunk made provable.
type Delta struct {
	Ops       int       `json:"ops"`
	Chunks    int       `json:"chunks"`
	Anomalies []Anomaly `json:"anomalies"`
}

// Report is a finalized job's report.
type Report struct {
	// Valid mirrors the X-Elle-Valid header: whether the history
	// satisfies the claimed model.
	Valid bool
	// Text is the prose rendering — byte-identical to `elle`'s stdout
	// for the same history and options.
	Text []byte
}

// ellebinContentType is the chunk Content-Type that selects the binary
// history format (docs/FORMATS.md); anything else is JSON lines.
const ellebinContentType = "application/x-ellebin"

// Create starts a job, retrying at_capacity refusals with backoff.
func (c *Client) Create(ctx context.Context, req CreateRequest) (*Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", "application/json", body, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Feed uploads one JSON-lines chunk, retrying shard_busy refusals.
// Chunks of one job must be fed sequentially, in history order.
func (c *Client) Feed(ctx context.Context, id string, chunk []byte) (*Delta, error) {
	return c.feed(ctx, id, "application/json", chunk)
}

// FeedBinary uploads one ellebin chunk; chunks may split records at
// arbitrary byte offsets — the server carries decode state across them.
func (c *Client) FeedBinary(ctx context.Context, id string, chunk []byte) (*Delta, error) {
	return c.feed(ctx, id, ellebinContentType, chunk)
}

func (c *Client) feed(ctx context.Context, id, contentType string, chunk []byte) (*Delta, error) {
	var d Delta
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/chunks", contentType, chunk, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// StatusJSON fetches a job's raw status document — the jobJSON wire
// shape, unfiltered by the typed Job struct.
func (c *Client) StatusJSON(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, envelopeError(resp.StatusCode, raw)
	}
	return raw, nil
}

// Report finalizes the job (on first call) and fetches its prose
// report.
func (c *Client) Report(ctx context.Context, id string) (*Report, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/report", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, envelopeError(resp.StatusCode, text)
	}
	return &Report{Valid: resp.Header.Get("X-Elle-Valid") == "true", Text: text}, nil
}

// ReportJSON finalizes the job (on first call) and fetches the
// structured report.
func (c *Client) ReportJSON(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/report?format=json", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, envelopeError(resp.StatusCode, raw)
	}
	return raw, nil
}

// Query finalizes the job (on first call) and evaluates one
// docs/QUERY.md pattern query against its analysis, returning the
// canonical tab-separated rows — byte-identical to `elle -query` over
// the same history and options. A malformed pattern surfaces as an
// *APIError with code "bad_query" whose message carries the 1-based
// position of the parse fault.
func (c *Client) Query(ctx context.Context, id, q string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/query?q="+url.QueryEscape(q), "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, envelopeError(resp.StatusCode, raw)
	}
	return raw, nil
}

// Cancel discards a job; on a WAL-backed server this deletes its
// journal too.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "", nil, nil)
}

// ListOpts filters and pages GET /v1/jobs.
type ListOpts struct {
	// State keeps only jobs in that state ("accepting", "done",
	// "failed"); empty keeps all.
	State string
	// Limit caps the page size; 0 means everything in one page.
	Limit int
	// Next is the cursor from the previous page's return.
	Next string
}

// List fetches one page of jobs and the cursor for the next page
// (empty on the last).
func (c *Client) List(ctx context.Context, opts ListOpts) ([]Job, string, error) {
	q := make([]string, 0, 3)
	if opts.State != "" {
		q = append(q, "state="+opts.State)
	}
	if opts.Limit > 0 {
		q = append(q, "limit="+strconv.Itoa(opts.Limit))
	}
	if opts.Next != "" {
		q = append(q, "next="+opts.Next)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var page struct {
		Jobs []Job  `json:"jobs"`
		Next string `json:"next"`
	}
	if err := c.do(ctx, http.MethodGet, path, "", nil, &page); err != nil {
		return nil, "", err
	}
	return page.Jobs, page.Next, nil
}

// Resume re-feeds the tail of a chunk sequence after a server crash:
// it asks the job how many chunks the WAL preserved and uploads
// chunks[accepted:] — exactly the suffix the restarted server never
// saw. chunks must be the same sequence, in the same order, as the
// original upload (acked prefixes are journaled verbatim, so re-sent
// suffixes continue the byte stream exactly). binary selects ellebin
// uploads. It returns how many chunks were re-sent.
func (c *Client) Resume(ctx context.Context, id string, chunks [][]byte, binary bool) (int, error) {
	st, err := c.Status(ctx, id)
	if err != nil {
		return 0, err
	}
	if st.State != "accepting" {
		return 0, &APIError{Status: http.StatusConflict, Code: "job_" + st.State,
			Message: "job is " + st.State + "; nothing to resume"}
	}
	if st.Chunks > len(chunks) {
		return 0, fmt.Errorf("elleclient: server accepted %d chunks but only %d were sent — wrong job?",
			st.Chunks, len(chunks))
	}
	sent := 0
	for _, chunk := range chunks[st.Chunks:] {
		feed := c.Feed
		if binary {
			feed = c.FeedBinary
		}
		if _, err := feed(ctx, id, chunk); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// do sends one request, retrying 429s, and decodes a JSON 2xx body
// into out when non-nil.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	resp, err := c.send(ctx, method, path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return envelopeError(resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("elleclient: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// send issues the request, absorbing 429 refusals with capped backoff.
// The returned response's status may still be any non-429 error; the
// caller maps it. 429 is always safe to retry: both at_capacity and
// shard_busy mean the server did nothing with the request.
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	retries := c.RetryLimit
	if retries == 0 {
		retries = 8
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
			return resp, nil
		}
		// Honor the server's Retry-After up to the cap; fall back to
		// exponential backoff when absent.
		sleep := backoff
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			sleep = time.Duration(ra) * time.Second
		}
		if sleep > maxBackoff {
			sleep = maxBackoff
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// envelopeError maps a non-2xx body to an *APIError. A body that is
// not the service's envelope (a proxy's 502 page, say) still yields an
// APIError, with the raw text as the message.
func envelopeError(status int, raw []byte) error {
	var env struct {
		Err struct {
			Code        string `json:"code"`
			Message     string `json:"message"`
			RetryAfterS int    `json:"retry_after_s"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err == nil && env.Err.Code != "" {
		return &APIError{Status: status, Code: env.Err.Code,
			Message: env.Err.Message, RetryAfterS: env.Err.RetryAfterS}
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(raw))}
}
