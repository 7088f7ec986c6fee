package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"womcpcm/internal/probe"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// jobView is the subset of womd's JobView the benchmark reads.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	Cached      bool   `json:"cached"`
	Worker      string `json:"worker"`
	Tenant      string `json:"tenant"`
	Traceparent string `json:"traceparent"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // zero on absence; callers check
	return t
}

func (v jobView) submitted() time.Time { return parseTime(v.SubmittedAt) }
func (v jobView) started() time.Time   { return parseTime(v.StartedAt) }
func (v jobView) finished() time.Time  { return parseTime(v.FinishedAt) }

// jobRequest is the submission body of POST /v1/jobs.
type jobRequest struct {
	Experiment string     `json:"experiment"`
	Params     sim.Params `json:"params"`
	Tenant     string     `json:"tenant,omitempty"`
}

// errShed marks a submission womd refused with 429.
var errShed = errors.New("shed")

// client talks to one womd over at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out. tc, when valid,
// is propagated as the W3C traceparent header.
func (c *client) do(method, path string, body any, tc span.Context, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc.Valid() {
		tc.Inject(req.Header)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, nil
}

// submit posts one job; a 429 is reported as errShed.
func (c *client) submit(req jobRequest, tc span.Context) (jobView, error) {
	var v jobView
	status, err := c.do(http.MethodPost, "/v1/jobs", req, tc, &v)
	if status == http.StatusTooManyRequests {
		return v, errShed
	}
	return v, err
}

// result fetches a finished job's result and returns its raw JSON.
func (c *client) result(id string) (jobView, json.RawMessage, error) {
	var body struct {
		Job    jobView         `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	status, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil, span.Context{}, &body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result of %s: status %d", id, status)
	}
	return body.Job, body.Result, err
}

// remove deletes a finished job.
func (c *client) remove(id string, tc span.Context) error {
	_, err := c.do(http.MethodDelete, "/v1/jobs/"+id, nil, tc, nil)
	return err
}

// waitDone follows the job's SSE stream to its "done" event and returns the
// terminal view with the time the event arrived.
func (c *client) waitDone(id string, tc span.Context) (jobView, time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return jobView{}, time.Time{}, err
	}
	if tc.Valid() {
		tc.Inject(req.Header)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return jobView{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, time.Time{}, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return jobView{}, time.Time{}, fmt.Errorf("stream %s ended before done: %w", id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			at := time.Now()
			var v jobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return jobView{}, at, fmt.Errorf("stream %s: decoding done: %w", id, err)
			}
			io.Copy(io.Discard, rd) //nolint:errcheck // drain so the connection is reused
			return v, at, nil
		}
	}
}

// jobs lists every job the daemon retains.
func (c *client) jobs() ([]jobView, error) {
	var body struct {
		Jobs []jobView `json:"jobs"`
	}
	_, err := c.do(http.MethodGet, "/v1/jobs", nil, span.Context{}, &body)
	return body.Jobs, err
}

// jobTrace fetches a job's distributed trace and converts the Chrome
// trace-event document back into spans.
func (c *client) jobTrace(id string) ([]span.Span, error) {
	var tr probe.ChromeTrace
	if _, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil, span.Context{}, &tr); err != nil {
		return nil, err
	}
	return spansOfChrome(tr), nil
}

// metrics scrapes /metrics into sample name (with labels) → value.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return promValues(string(body)), nil
}

// resultDigest hashes a result document's canonical JSON, so results
// compare independent of field order and indentation.
func resultDigest(raw []byte) (string, error) {
	canon, err := resultstore.CanonicalJSON(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return fmt.Sprintf("%x", sum), nil
}
