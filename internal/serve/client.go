package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"loadsched/internal/results"
)

// Admission-retry policy: a 429 from the server means the bounded queue is
// momentarily full, which a sweep driver should ride out rather than die
// on. The client retries the submission, sleeping the server's Retry-After
// hint (capped — the hint is advisory, and an absurd value must not hang
// the CLI) or an exponential fallback when the hint is absent or garbled.
const (
	clientMaxRetries    = 4
	clientBaseRetryWait = 100 * time.Millisecond
	clientMaxRetryWait  = 2 * time.Second
)

// Client submits jobs to a loadsched serve endpoint and decodes the NDJSON
// stream. The zero value is not usable; construct with NewClient.
type Client struct {
	base string
	http *http.Client
	// retries/sleep are the admission-retry knobs, fields so tests can
	// count attempts without wall-clock sleeps.
	retries int
	sleep   func(time.Duration)
}

// NewClient returns a client for the server's base URL ("host:port" is
// accepted and normalized to http://host:port). The client streams — record
// callbacks fire as lines arrive, not after the job completes — so no
// request timeout is imposed; cancel via the server or process instead.
func NewClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: base, http: &http.Client{}, retries: clientMaxRetries, sleep: time.Sleep}
}

// retryWait picks the pause before retrying a 429: the server's Retry-After
// seconds when parseable (capped at clientMaxRetryWait), else exponential
// backoff from clientBaseRetryWait.
func retryWait(header string, attempt int) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > clientMaxRetryWait {
			d = clientMaxRetryWait
		}
		return d
	}
	d := clientBaseRetryWait << attempt
	if d > clientMaxRetryWait {
		d = clientMaxRetryWait
	}
	return d
}

// Do submits one job and invokes onRecord for each streamed record in job
// order. It returns the done-line counters on success; a server-reported
// job failure, a mid-stream disconnect, and a submission still rejected
// after the 429 retry budget are all errors.
func (c *Client) Do(job Job, onRecord func(results.Record) error) (*results.RunnerCounters, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("serve client: encoding job: %w", err)
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		resp, err = c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("serve client: %w", err)
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.retries {
			break
		}
		hint := resp.Header.Get("Retry-After")
		resp.Body.Close()
		c.sleep(retryWait(hint, attempt))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, fmt.Errorf("serve client: server busy after %d retries (%s); retry after %ss",
				c.retries, e.Error, resp.Header.Get("Retry-After"))
		}
		return nil, fmt.Errorf("serve client: %s", e.Error)
	}

	// The stream is line-framed JSON. A record line can carry a whole
	// figure's rows, so lines may grow to 16 MB; the buffer starts at the
	// scanner's default size and grows only for such a line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line Line
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("serve client: bad stream line: %w", err)
		}
		switch {
		case line.Error != "":
			return nil, fmt.Errorf("serve client: job failed: %s", line.Error)
		case line.Done != nil:
			rc := line.Done.Runner
			return &rc, nil
		case line.Record != nil:
			rec, err := results.DecodeRecord(line.Record)
			if err != nil {
				return nil, fmt.Errorf("serve client: decoding record: %w", err)
			}
			if onRecord != nil {
				if err := onRecord(rec); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve client: reading stream: %w", err)
	}
	return nil, fmt.Errorf("serve client: stream ended without a done line (server died mid-job?)")
}
