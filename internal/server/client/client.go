// Package client is the Go client for the spexd streaming query server.
// It wraps the /v1 HTTP API: register subscriptions, stream documents into
// channels, and consume progressive NDJSON result frames.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// APIError is a non-2xx response from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's Retry-After hint, zero when absent. 429
	// and 503 responses carry one — retry then instead of immediately.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("spexd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Temporary reports whether the request may succeed if retried (the
// load-shedding statuses).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client talks to one spexd server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// A nil http.Client uses http.DefaultClient.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// apiErr drains and converts a non-2xx response. The body is consumed either
// way so the connection returns to the pool.
func apiErr(resp *http.Response) error {
	defer resp.Body.Close()
	var body server.ErrorBody
	msg := ""
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		msg = body.Error
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	e := &APIError{Status: resp.StatusCode, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

func (c *Client) doJSON(req *http.Request, want int, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return apiErr(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Subscribe registers a standing query and returns its subscription info.
func (c *Client) Subscribe(ctx context.Context, req server.SubscribeRequest) (server.SubscriptionInfo, error) {
	var buf strings.Builder
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return server.SubscriptionInfo{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/subscriptions", strings.NewReader(buf.String()))
	if err != nil {
		return server.SubscriptionInfo{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var info server.SubscriptionInfo
	err = c.doJSON(hreq, http.StatusCreated, &info)
	return info, err
}

// Subscription fetches a subscription's current info.
func (c *Client) Subscription(ctx context.Context, id string) (server.SubscriptionInfo, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/subscriptions/"+id, nil)
	if err != nil {
		return server.SubscriptionInfo{}, err
	}
	var info server.SubscriptionInfo
	err = c.doJSON(hreq, http.StatusOK, &info)
	return info, err
}

// Unsubscribe removes a subscription; its attached result streams end after
// flushing what is queued.
func (c *Client) Unsubscribe(ctx context.Context, id string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/subscriptions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return apiErr(resp)
	}
	resp.Body.Close()
	return nil
}

// Channels lists the server's channels.
func (c *Client) Channels(ctx context.Context) ([]server.ChannelInfo, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/channels", nil)
	if err != nil {
		return nil, err
	}
	var out []server.ChannelInfo
	err = c.doJSON(hreq, http.StatusOK, &out)
	return out, err
}

// Ingest streams an XML document from r into the named channel and returns
// the session summary once the server has evaluated it end to end. The
// server mints a stream trace id for the ingest (reported in the summary);
// to name the stream yourself, use IngestWithTrace.
func (c *Client) Ingest(ctx context.Context, channel string, r io.Reader) (server.IngestSummary, error) {
	return c.IngestWithTrace(ctx, channel, "", r)
}

// IngestWithTrace is Ingest with a caller-chosen stream trace id, sent as
// the X-Spex-Trace-Id header: the summary, every result frame of this
// ingest, and the engine's trace records carry it, correlating the stream
// end to end. Empty lets the server mint one.
func (c *Client) IngestWithTrace(ctx context.Context, channel, trace string, r io.Reader) (server.IngestSummary, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/channels/"+channel+"/ingest", r)
	if err != nil {
		return server.IngestSummary{}, err
	}
	hreq.Header.Set("Content-Type", "application/xml")
	if trace != "" {
		hreq.Header.Set(server.TraceHeader, trace)
	}
	var sum server.IngestSummary
	err = c.doJSON(hreq, http.StatusOK, &sum)
	return sum, err
}

// Sideload asks the server to evaluate a document that already sits in its
// side-load directory: file is a relative path under that directory, and
// workers selects the ingest mode (0 = serial zero-copy scan, positive =
// parallel chunk-scan with that many workers, negative = one per CPU). The
// document never crosses the wire — the server mmaps and scans it in place.
func (c *Client) Sideload(ctx context.Context, channel, file string, workers int) (server.IngestSummary, error) {
	body, err := json.Marshal(server.SideloadRequest{File: file, Workers: workers})
	if err != nil {
		return server.IngestSummary{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/channels/"+channel+"/sideload", bytes.NewReader(body))
	if err != nil {
		return server.IngestSummary{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var sum server.IngestSummary
	err = c.doJSON(hreq, http.StatusOK, &sum)
	return sum, err
}

// IngestString is Ingest over an in-memory document.
func (c *Client) IngestString(ctx context.Context, channel, doc string) (server.IngestSummary, error) {
	return c.Ingest(ctx, channel, strings.NewReader(doc))
}

// Results attaches to a subscription's result stream and calls fn for every
// frame as it arrives. It returns nil when the stream ends server-side
// (unsubscribe or drain), ctx.Err() on cancellation, fn's error if fn fails,
// and the transport or API error otherwise.
func (c *Client) Results(ctx context.Context, id string, fn func(server.Frame) error) error {
	rs, err := c.OpenResults(ctx, id)
	if err != nil {
		return err
	}
	return rs.Each(fn)
}

// ResultStream is a subscription's attached result stream (see OpenResults).
type ResultStream struct {
	ctx  context.Context
	body io.ReadCloser
	sc   *bufio.Scanner
}

// OpenResults attaches to a subscription's result stream and returns once
// the server has committed it. From then on the stream receives every frame
// the subscription produces, including frames of ingests that finish before
// the caller starts reading, and it ends cleanly even if the subscription is
// retired first. A caller that must not race retirement against attachment
// (an unsubscribe, a limit, a drain) opens the stream before triggering it.
// The stream is read with Each, or released unread with Close.
func (c *Client) OpenResults(ctx context.Context, id string) (*ResultStream, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/subscriptions/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiErr(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &ResultStream{ctx: ctx, body: resp.Body, sc: sc}, nil
}

// Each calls fn for every frame as it arrives and closes the stream. It
// returns nil when the stream ends server-side (unsubscribe or drain),
// ctx.Err() on cancellation, fn's error if fn fails, and the transport error
// otherwise.
func (s *ResultStream) Each(fn func(server.Frame) error) error {
	defer s.body.Close()
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f server.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("spexd: bad result frame: %w", err)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	if err := s.sc.Err(); err != nil {
		if s.ctx.Err() != nil {
			return s.ctx.Err()
		}
		return err
	}
	return nil
}

// Close detaches from the stream without reading it.
func (s *ResultStream) Close() error { return s.body.Close() }

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool { return c.probe(ctx, "/healthz") }

// Ready reports whether /readyz answers 200 (false while draining).
func (c *Client) Ready(ctx context.Context) bool { return c.probe(ctx, "/readyz") }

func (c *Client) probe(ctx context.Context, path string) bool {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
