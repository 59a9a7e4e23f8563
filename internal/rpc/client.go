package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/telemetry"
)

// clientErrors counts failed and degraded calls per endpoint, each once: a
// transport failure, a non-200 reply, an undecodable body or a refused answer.
// The map is built once at init over the protocol's fixed endpoint set and
// never written again, so the failure path reads it without a lock; unknown
// paths (none exist today) fall back to the catch-all "other" series.
var clientErrors = func() map[string]*telemetry.Counter {
	reg := telemetry.Default()
	m := make(map[string]*telemetry.Counter)
	for _, p := range []string{
		"/v1/rho", "/v1/bid", "/v1/allocation", "/v1/health",
		"/v1/register", "/v1/auction", "/v1/status", "/v1/shards", "other",
	} {
		m[p] = reg.Counter("themis_rpc_client_errors_total",
			"Failed or degraded calls to a remote agent or arbiter, by endpoint.",
			telemetry.L("endpoint", p))
	}
	return m
}()

// countError records one failed or degraded call to path.
func countError(path string) {
	c, ok := clientErrors[path]
	if !ok {
		c = clientErrors["other"]
	}
	c.Inc()
}

// transportError records a failed attempt and wraps err with the method,
// endpoint and attempt duration, so the /metrics error counters and the log
// line a caller prints agree on which endpoint failed and how long the
// attempt ran (a timeout after 10s and a refused connection after 1ms look
// identical without it).
func transportError(method, path string, start time.Time, err error) error {
	countError(path)
	return fmt.Errorf("rpc: %s %s failed after %s: %w", method, path, time.Since(start).Round(100*time.Microsecond), err)
}

// agentTransport is the keep-alive pool NewAgentClient's clients share. The
// default keeps 2 idle connections per host, so a fan-out to one host would
// dial and drop some every round; this one keeps and caps a fan-out's width.
var agentTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost, t.MaxConnsPerHost = fanoutWidth, fanoutWidth
	return t
}()

// AgentClient is the Arbiter-side client for one registered Agent.
type AgentClient struct {
	// BaseURL is the Agent's HTTP endpoint, e.g. "http://host:port".
	BaseURL string
	// HTTPClient is the client used for requests; nil uses a client with a
	// short timeout suitable for scheduling RPCs.
	HTTPClient *http.Client
}

// NewAgentClient returns a client for the Agent at baseURL.
func NewAgentClient(baseURL string) *AgentClient {
	return &AgentClient{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 10 * time.Second, Transport: agentTransport}}
}

// drainAndClose consumes whatever is left of a response body before closing
// it. json.Decoder stops at the end of the JSON value, leaving at least the
// trailing newline unread; a body closed with bytes still buffered makes
// net/http discard the TCP connection instead of returning it to the
// keep-alive pool, which costs a fresh dial on every scheduling RPC. The
// probe/bid path runs once per agent per auction round, so connection reuse
// is measurable (see BenchmarkAgentClientKeepAlive).
func drainAndClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

// post sends a JSON request and decodes the JSON response into out.
func (c *AgentClient) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("rpc: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rpc: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, path, out)
}

// get fetches a JSON resource, decoding it into out. Non-200 responses are
// surfaced as errors carrying the server's error message, exactly like post.
func (c *AgentClient) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("rpc: building request: %w", err)
	}
	return c.do(req, path, out)
}

// do sends req and decodes the JSON response into out (nil discards it). A
// transport failure, a non-200 reply and an undecodable body each count once
// on path's error counter.
func (c *AgentClient) do(req *http.Request, path string, out any) error {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return transportError(req.Method, path, start, err)
	}
	defer drainAndClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		countError(path)
		return fmt.Errorf("rpc: %s returned %d: %s", path, resp.StatusCode, e.Error)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		countError(path)
		return fmt.Errorf("rpc: decoding %s response: %w", path, err)
	}
	return nil
}

// ProbeRho asks the Agent for its current finish-time fairness estimate.
func (c *AgentClient) ProbeRho(ctx context.Context, now float64, current cluster.Alloc) (float64, error) {
	var resp RhoResponse
	err := c.post(ctx, "/v1/rho", RhoRequest{Now: now, Current: ToWireAlloc(current)}, &resp)
	return resp.Rho, err
}

// RequestBid offers GPUs to the Agent and returns its bid table.
func (c *AgentClient) RequestBid(ctx context.Context, now float64, offer, current cluster.Alloc) (core.BidTable, error) {
	var resp BidResponse
	if err := c.post(ctx, "/v1/bid", BidRequest{Now: now, Offer: ToWireAlloc(offer), Current: ToWireAlloc(current)}, &resp); err != nil {
		return core.BidTable{}, err
	}
	table, err := resp.ToBidTable()
	if err != nil {
		countError("/v1/bid")
	}
	return table, err
}

// DeliverAllocation notifies the Agent of its new total allocation and lease
// expiry.
func (c *AgentClient) DeliverAllocation(ctx context.Context, now float64, alloc cluster.Alloc, fromAuction bool, leaseExpiry float64) error {
	return c.post(ctx, "/v1/allocation", AllocationMsg{
		Now: now, Alloc: ToWireAlloc(alloc), FromAuction: fromAuction, LeaseExpiry: leaseExpiry,
	}, nil)
}

// Health checks the Agent's liveness.
func (c *AgentClient) Health(ctx context.Context) error {
	return c.get(ctx, "/v1/health", nil)
}

// ArbiterClient is the Agent-side (or operator-side) client for an Arbiter. It
// has AgentClient's fields and sends its requests through AgentClient's path.
type ArbiterClient AgentClient

// NewArbiterClient returns a client for the Arbiter at baseURL.
func NewArbiterClient(baseURL string) *ArbiterClient {
	return &ArbiterClient{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 10 * time.Second}}
}

// Register announces an Agent to the Arbiter.
func (c *ArbiterClient) Register(ctx context.Context, app, callback string, maxParallelism int) (RegisterResponse, error) {
	var resp RegisterResponse
	err := (*AgentClient)(c).post(ctx, "/v1/register", RegisterRequest{App: app, Callback: callback, MaxParallelism: maxParallelism}, &resp)
	return resp, err
}

// TriggerAuction asks the Arbiter to run one auction round over the GPUs
// currently free and returns the decisions.
func (c *ArbiterClient) TriggerAuction(ctx context.Context) (AuctionResponse, error) {
	var resp AuctionResponse
	err := (*AgentClient)(c).post(ctx, "/v1/auction", struct{}{}, &resp)
	return resp, err
}

// Status fetches the Arbiter's cluster status. Error responses propagate as
// errors — a failing arbiter never decodes into a healthy-looking zero
// status.
func (c *ArbiterClient) Status(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	err := (*AgentClient)(c).get(ctx, "/v1/status", &out)
	return out, err
}

// ShardStatus fetches the arbiter's per-shard detail.
func (c *ArbiterClient) ShardStatus(ctx context.Context) (ShardStatusResponse, error) {
	var out ShardStatusResponse
	err := (*AgentClient)(c).get(ctx, "/v1/shards", &out)
	return out, err
}
