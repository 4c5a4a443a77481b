package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/router"
	"phmse/internal/server"
)

// adminToken is the cluster-wide bearer token of the in-process cluster.
const adminToken = "perfbench"

// shardNames are the router's names for the two shards. The ring places
// keys by shard name, so fixed names (mapped onto whatever loopback port
// each shard got) keep every topology on the same shard from run to run.
var shardNames = []string{"http://shard-1.perfbench", "http://shard-2.perfbench"}

// vnodes matches the router's default virtual nodes per shard.
const vnodes = 64

// cluster is two phmsed shards behind one phmse-router, all in this
// process, each on its own loopback listener.
type cluster struct {
	shards  []*server.Server
	urls    []string // real loopback base URL of each shard
	inst    []string // instance id of each shard
	rt      *router.Router
	rtURL   string
	https   []*http.Server
	wg      sync.WaitGroup
	hc      *http.Client // benchmark-side connections: at most two
	rtTrans *http.Transport
}

// startCluster starts the shards with the given configurations and a
// router whose background probing and repair never fire during a run:
// repairs happen only when the benchmark calls Admin.Repair.
func startCluster(cfgs []server.Config, hc *http.Client) (*cluster, error) {
	c := &cluster{hc: hc}
	addrs := map[string]string{}
	for i, cfg := range cfgs {
		cfg.InstanceID = fmt.Sprintf("s%d", i+1)
		cfg.AdminToken = adminToken
		srv := server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.serve(ln, srv)
		c.shards = append(c.shards, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.inst = append(c.inst, cfg.InstanceID)
		u, _ := url.Parse(shardNames[i])
		addrs[u.Host+":80"] = ln.Addr().String()
	}
	var d net.Dialer
	c.rtTrans = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("perfbench: unknown shard address %s", addr)
			}
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 4,
	}
	rt, err := router.New(router.Config{
		Shards:         shardNames[:len(cfgs)],
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
		GossipInterval: -1,
		AdminToken:     adminToken,
		ReplicaID:      "perfbench",
		HTTPClient:     &http.Client{Transport: c.rtTrans},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.CheckNow(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	c.serve(ln, rt)
	c.rtURL = "http://" + ln.Addr().String()
	return c, nil
}

func (c *cluster) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
}

// close stops the router, the listeners and the shards, and waits for
// every goroutine the cluster started.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range c.https {
		hs.Shutdown(ctx) //nolint:errcheck // closing; the listeners are gone either way
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, s := range c.shards {
		s.Shutdown(ctx) //nolint:errcheck // every job was waited for
	}
	c.wg.Wait()
	if c.rtTrans != nil {
		c.rtTrans.CloseIdleConnections()
	}
	c.hc.CloseIdleConnections()
}

// benchHTTPClient is the load generator's HTTP client: at most two
// connections, whatever the number of outstanding requests.
func benchHTTPClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	}
	return &http.Client{Transport: rt}
}

// client returns an API client through the router.
func (c *cluster) client() *client.Client { return client.New(c.rtURL, client.WithHTTPClient(c.hc)) }

// admin returns an admin-plane client through the router.
func (c *cluster) admin() *client.Admin {
	return client.NewAdmin(c.rtURL, adminToken, client.WithHTTPClient(c.hc))
}

// ringOwner computes, independently of the router, which shard (index
// into shardNames) owns a topology hash on the consistent-hash ring.
func ringOwner(n int, topoHash string) int {
	type point struct {
		h     uint64
		shard int
	}
	pts := make([]point, 0, n*vnodes)
	for i := 0; i < n; i++ {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{encode.KeyHash(fmt.Sprintf("%s#%d", shardNames[i], v)), i})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	h := encode.KeyHash(topoHash)
	i := sort.Search(len(pts), func(i int) bool { return pts[i].h >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].shard
}

// shardIndex maps a job's shard instance id to its shard index.
func (c *cluster) shardIndex(inst string) int {
	for i, s := range c.inst {
		if s == inst {
			return i
		}
	}
	return -1
}

// posteriorHolders returns, for each shard, how many index entries it
// holds under the job id.
func (c *cluster) posteriorHolders(ctx context.Context, job string) ([]int, error) {
	out := make([]int, len(c.urls))
	for i, u := range c.urls {
		var idx encode.PosteriorIndex
		if err := getJSON(ctx, c.hc, u+"/v1/posteriors?prefix="+url.QueryEscape(job), &idx); err != nil {
			return nil, err
		}
		for _, p := range idx.Posteriors {
			if p.Job == job {
				out[i]++
			}
		}
	}
	return out, nil
}

// putPosterior imports a posterior document directly into one shard.
func (c *cluster) putPosterior(ctx context.Context, shard int, job string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.urls[shard]+"/v1/posteriors/"+url.PathEscape(job), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only so the connection is reused
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("PUT posterior %s to shard %d: HTTP %d", job, shard, resp.StatusCode)
	}
	return nil
}

func getJSON(ctx context.Context, hc *http.Client, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
