package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"clockwork"
)

// Client is the typed Go client of a clockworkd server: it mirrors the
// in-process Request/Result API over HTTP, so code written against
// System.SubmitRequest ports to the network with a connection string.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at addr ("host:port" or a
// full "http://…" base URL). httpClient may be nil for a default tuned
// for many concurrent loopback connections.
func NewClient(addr string, httpClient *http.Client) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if httpClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 512
		httpClient = &http.Client{Transport: tr}
	}
	return &Client{base: strings.TrimRight(addr, "/"), hc: httpClient}
}

// APIError is a non-2xx server response. Unwrap yields the matching
// typed clockwork error (e.g. clockwork.ErrUnknownModel), so
// errors.Is works identically against the in-process and the remote
// API.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// Unwrap maps the wire code back onto the typed error taxonomy —
// clockwork's errors plus the serving-plane ones (ErrOverloaded,
// ErrDraining). Both transports produce APIError, so errors.Is works
// the same whichever front door the request took.
func (e *APIError) Unwrap() error { return codeToErr(e.Code) }

// do issues one JSON round trip. out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one request with body as its JSON payload (none when nil)
// and returns the response if it is a 2xx; any other status becomes an
// *APIError.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		var e errorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) != nil || e.Error == "" {
			e = errorResponse{Error: strings.TrimSpace(string(msg)), Code: "internal"}
		}
		return nil, &APIError{Status: resp.StatusCode, Code: e.Code, Message: e.Error}
	}
	return resp, nil
}

// Infer submits one inference and blocks until its outcome returns.
// Both bodies go through the infer codec, with encoding/json for what it
// declines. The request body gets a buffer of its own, not a pooled
// one: net/http may still be reading it after Do returns.
func (c *Client) Infer(ctx context.Context, req clockwork.Request) (clockwork.Result, error) {
	in := InferRequest{
		Model:        req.Model,
		SLO:          req.SLO,
		Priority:     req.Priority,
		Tenant:       req.Tenant,
		MaxBatchSize: req.MaxBatchSize,
	}
	body, ok := appendInferRequest(make([]byte, 0, 128), &in)
	if !ok {
		body, _ = json.Marshal(in) // strings and integers always marshal
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/infer", body)
	if err != nil {
		return clockwork.Result{}, err
	}
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer jsonBufPool.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return clockwork.Result{}, err
	}
	out, ok := parseInferResponse(buf.Bytes())
	if !ok {
		slow := new(InferResponse) // escapes; out stays on the stack
		if err := json.NewDecoder(buf).Decode(slow); err != nil {
			return clockwork.Result{}, err
		}
		out = *slow
	}
	return out.Result(), nil
}

// RegisterModel registers one instance of a zoo catalogue model.
func (c *Client) RegisterModel(ctx context.Context, instance, zoo string) error {
	return c.do(ctx, http.MethodPost, "/v1/models",
		RegisterRequest{Instance: instance, Zoo: zoo}, nil)
}

// RegisterCopies registers n instances named "<base>#0" … "<base>#n-1"
// and returns their names.
func (c *Client) RegisterCopies(ctx context.Context, base, zoo string, n int) ([]string, error) {
	var resp RegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/models",
		RegisterRequest{Instance: base, Zoo: zoo, Copies: n}, &resp)
	return resp.Instances, err
}

// Models lists the registered instance names in registration order.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var resp ModelsResponse
	err := c.do(ctx, http.MethodGet, "/v1/models", nil, &resp)
	return resp.Models, err
}

// Stats returns the serving-plane summary.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp)
	return resp, err
}

// AddWorker adds one worker with the server's standard geometry and
// returns its ID.
func (c *Client) AddWorker(ctx context.Context) (int, error) {
	var resp WorkerResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/workers", nil, &resp)
	return resp.ID, err
}

// DrainWorker drains worker id.
func (c *Client) DrainWorker(ctx context.Context, id int) error {
	return c.do(ctx, http.MethodPost, "/v1/admin/workers/drain", WorkerRequest{ID: id}, nil)
}

// FailWorker abruptly fails worker id.
func (c *Client) FailWorker(ctx context.Context, id int) error {
	return c.do(ctx, http.MethodPost, "/v1/admin/workers/fail", WorkerRequest{ID: id}, nil)
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: health %s", resp.Status)
	}
	return nil
}

// WaitReady polls /healthz until the server answers or ctx expires —
// the standard "daemon just forked" startup gate.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		if err := c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}
