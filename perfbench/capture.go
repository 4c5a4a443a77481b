package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// capture is the traced run's HTTP transport: it passes every request
// through and keeps copies of the most recent solve-request bodies and
// posterior-response bodies, so the encode layer can be timed afterwards
// on exactly the bytes the workload sent and received.
type capture struct {
	next http.RoundTripper
	on   atomic.Bool

	mu         sync.Mutex
	requests   [][]byte
	posteriors [][]byte
}

// Copies kept of each kind: enough for a stable median, few enough that
// the posterior copies (megabytes each) do not weigh on peak memory.
const (
	keepRequests   = 32
	keepPosteriors = 4
)

func (c *capture) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.on.Load() {
		return c.next.RoundTrip(req)
	}
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/v1/solve") && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		c.mu.Lock()
		c.requests = keepLast(c.requests, body, keepRequests)
		c.mu.Unlock()
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/posterior") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	c.mu.Lock()
	c.posteriors = keepLast(c.posteriors, body, keepPosteriors)
	c.mu.Unlock()
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (c *capture) CloseIdleConnections() {
	if t, ok := c.next.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}

func keepLast(list [][]byte, b []byte, n int) [][]byte {
	list = append(list, b)
	if len(list) > n {
		list = append(list[:0], list[len(list)-n:]...)
	}
	return list
}

func (c *capture) snapshot() (requests, posteriors [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.requests...), append([][]byte(nil), c.posteriors...)
}
