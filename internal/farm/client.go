package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"offramps/internal/farm/faults"
)

// The per-operation deadlines of the farm protocol. Small control-plane
// calls (lease, heartbeat, fail) get short windows so a stalled
// coordinator cannot wedge a heartbeat behind a slow transfer; bulk
// calls (suite fetch, completion upload) get room.
const (
	leaseTimeout     = 5 * time.Second
	heartbeatTimeout = 3 * time.Second
	failTimeout      = 5 * time.Second
	completeTimeout  = 30 * time.Second
	suiteTimeout     = 2 * time.Minute
)

// Client is the worker side of the farm protocol: a thin, retry-free
// HTTP wrapper (the worker loop owns retry policy, because only it
// knows whether a failure is worth waiting out). Every call carries its
// own context deadline from the constants above — there is deliberately
// no catch-all http.Client timeout, so one slow operation class cannot
// redefine the budget of another.
type Client struct {
	// Base is the coordinator's URL, e.g. "http://127.0.0.1:7333".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient semantics;
	// chaos tests install a faults.Transport here).
	HTTP *http.Client
	// Clock issues the deadlines (nil = faults.Wall{}); injectable so
	// scripted chaos runs control when a call times out.
	Clock faults.Clock
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) clock() faults.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return faults.Wall{}
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// FetchSuite downloads the canonical suite document.
func (c *Client) FetchSuite(ctx context.Context) ([]byte, error) {
	ctx, cancel := c.clock().WithTimeout(ctx, suiteTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(PathSuite), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("farm: %s: %s: %s", PathSuite, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// Lease asks for one scenario.
func (c *Client) Lease(ctx context.Context, worker string) (*LeaseReply, error) {
	var out LeaseReply
	if err := c.post(ctx, PathLease, leaseTimeout, LeaseRequest{Worker: worker}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Heartbeat extends a lease; false means the lease is gone.
func (c *Client) Heartbeat(ctx context.Context, token string) (bool, error) {
	var out HeartbeatReply
	if err := c.post(ctx, PathHeartbeat, heartbeatTimeout, HeartbeatRequest{Token: token}, &out); err != nil {
		return false, err
	}
	return out.OK, nil
}

// Complete returns a finished scenario's rows and reports the
// coordinator's verdict (accepted, duplicate, unknown).
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (string, error) {
	var out CompleteReply
	if err := c.post(ctx, PathComplete, completeTimeout, req, &out); err != nil {
		return "", err
	}
	return out.Status, nil
}

// Fail reports a scenario the worker could not run, releasing the lease
// with a strike.
func (c *Client) Fail(ctx context.Context, req FailRequest) (string, error) {
	var out FailReply
	if err := c.post(ctx, PathFail, failTimeout, req, &out); err != nil {
		return "", err
	}
	return out.Status, nil
}

func (c *Client) post(ctx context.Context, path string, timeout time.Duration, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := c.clock().WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("farm: %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
