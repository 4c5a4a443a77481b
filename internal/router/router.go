// Package router implements phmse-router, the consistent-hash sharding
// tier that scales phmsed horizontally: a thin HTTP layer fronting N
// daemon instances. It mirrors the paper's inter-node parallel axis —
// disjoint subtrees solved on disjoint processors — lifted one level up:
// disjoint topologies served by disjoint daemons.
//
// Routing rules:
//
//   - POST /v1/solve hashes the problem's topology (encode.TopologyHash)
//     onto a consistent-hash ring of healthy shards, so identical
//     topologies always land on the same shard and its plan cache and
//     posterior store stay hot. Warm-started submissions instead follow
//     the referenced job id's instance qualifier to the shard retaining
//     the posterior.
//   - Job endpoints (/v1/jobs/{id}[...]) follow the id's instance
//     qualifier; ids the router cannot attribute are broadcast to the
//     live shards (exactly one shard owns any real job).
//   - GET /v1/jobs fans out to every live shard and merges the pages in
//     submission-time order, with a composite cursor that preserves each
//     shard's own pagination position.
//
// Shard health is tracked by polling each backend's /healthz (liveness +
// instance identity) and /readyz (accepting work), with automatic ring
// ejection and readmission and capped-backoff probing; a forwarding
// transport failure ejects the shard immediately rather than waiting for
// the next probe. Forwarding keeps the client.RetryPolicy semantics:
// backpressure responses pass through with Retry-After intact, transport
// failures and 5xx responses are retried (and failed over) only where a
// replay is safe. When no shard can serve a request the router answers
// 503 with the structured error envelope (code no_shard).
//
// Cluster membership is elastic: the /admin/v1 control plane (see
// admin.go) adds, drains, and removes shards at runtime, mutating the
// ring under the same rebuild serialization health transitions use, and
// every membership change runs the repair sweeper's convergence pass
// (repair.go) so warm-start state follows its keys to their new owners.
package router

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/client"
	"phmse/internal/cluster"
	"phmse/internal/encode"
)

// maxRequestBody bounds a forwarded solve request body, matching the
// daemon's own limit.
const maxRequestBody = 64 << 20

// Config sizes the router. The zero value of every field selects a
// default; Shards is required.
type Config struct {
	// Shards are the backend phmsed base URLs (e.g. "http://host:8080").
	Shards []string
	// VNodes is the number of virtual nodes each shard contributes to the
	// ring (default 64): more vnodes smooth the key distribution at the
	// cost of a larger ring.
	VNodes int
	// ProbeInterval is the per-shard health-poll period (default 2s).
	ProbeInterval time.Duration
	// MaxProbeBackoff caps the exponential probe backoff of an unreachable
	// shard (default 30s).
	MaxProbeBackoff time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// FailAfter is the number of consecutive failed probes that eject a
	// shard from the ring (default 1). Forwarding transport failures eject
	// immediately regardless.
	FailAfter int
	// ShardInflight caps the requests concurrently forwarded to any one
	// shard — a counting semaphore per backend, so a slow daemon
	// accumulates bounded load instead of every queued connection the
	// router holds. A submission finding all its replicas saturated, or a
	// job request whose owning shard is saturated, is answered 429 with a
	// Retry-After hint. 0 (the default) disables the limit.
	ShardInflight int
	// Retry shapes forwarded-request retries with client.RetryPolicy
	// semantics: transport failures and 5xx responses are retried for
	// idempotent GETs only, with jittered exponential backoff.
	Retry client.RetryPolicy
	// AdminToken, when set, gates the /admin/v1 control plane behind
	// "Authorization: Bearer <token>" and is presented by the router on
	// the daemons' mutating posterior-transfer endpoints during migration
	// — deploy one token cluster-wide. Empty leaves the admin API open
	// (the test and localhost default).
	AdminToken string
	// DrainDeadline bounds how long a graceful drain waits for a shard's
	// in-flight jobs before migrating and ejecting anyway (default 30s).
	// Per-request ?deadline_ms= overrides it.
	DrainDeadline time.Duration
	// MigrateTimeout bounds one posterior transfer (export + import +
	// delete) in any convergence pass (default 10s).
	MigrateTimeout time.Duration

	// RepairInterval is the anti-entropy repair sweep period (default
	// 30s; negative disables the loop). Each sweep indexes every live
	// shard's posteriors, diffs holdings against current ring ownership,
	// and re-drives misplaced posteriors through the transfer protocol.
	// The actual period is jittered ±20% so multiple routers do not
	// sweep in lockstep, and a membership pass that reported failures
	// kicks an immediate sweep.
	RepairInterval time.Duration
	// RepairConcurrency bounds the posterior transfers one convergence
	// pass runs at once (default 2): repair sweeps and membership passes
	// alike, drains included.
	RepairConcurrency int

	// BreakerFailures is the consecutive live-forward failures (transport
	// errors or 5xx responses) that open a shard's circuit breaker,
	// fencing it out of the ring (default 3; <= -1 disables the breaker,
	// 0 selects the default).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker waits before
	// half-opening to admit one trial request (default 5s).
	BreakerCooldown time.Duration
	// FlapCount quarantines a shard readmitted to the ring this many
	// times within FlapWindow: instead of the single-success readmission,
	// it must stay healthy through an escalating probation of consecutive
	// good probes (2, 4, 8, … doubling per quarantine, capped at 32).
	// Default 3; <= -1 disables flap suppression, 0 selects the default.
	FlapCount int
	// FlapWindow is the sliding window over ring readmissions that
	// defines flapping (default 60s).
	FlapWindow time.Duration

	// AuditLog, when set, appends one JSON line per admin membership
	// change (and per effective repair sweep) to this file. The last
	// entries are always also retained in memory and served at
	// GET /admin/v1/audit regardless.
	AuditLog string

	// ReplicaID names this router replica in the replicated membership
	// document: the Origin stamp on its mutations, the holder of its
	// repair leases, and the `from` of its gossip exchanges. Default: a
	// random "r-<hex>" id minted at startup — fine for ephemeral
	// replicas, but deploy stable ids so audit origins survive restarts.
	ReplicaID string
	// Peers lists the other router replicas' base URLs
	// (e.g. "http://router-b:8090"). Replicas gossip the membership
	// document over POST /cluster/v1/state: an /admin/v1 mutation at any
	// replica propagates to every peer within one gossip round. Empty
	// (the default) runs the classic single-router control plane.
	Peers []string
	// GossipInterval is the anti-entropy exchange period (default 1s,
	// jittered; negative disables the background loop — exchanges still
	// run via GossipNow and inbound pushes, the test mode). Admin
	// mutations additionally kick an immediate round.
	GossipInterval time.Duration
	// LeaseTTL is the repair-sweeper lease duration (default 3×
	// RepairInterval): the window during which the lease-holding replica
	// owns the anti-entropy posterior sweep and every peer skips its
	// own. A holder renews on each sweep; a crashed holder's lease
	// simply expires.
	LeaseTTL time.Duration

	// HTTPClient overrides the forwarding/probing client.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 30 * time.Second
	}
	if c.MaxProbeBackoff < c.ProbeInterval {
		c.MaxProbeBackoff = c.ProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 1
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = time.Second
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 30 * time.Second
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 10 * time.Second
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.RepairConcurrency <= 0 {
		c.RepairConcurrency = 2
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.FlapCount == 0 {
		c.FlapCount = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.ReplicaID == "" {
		var b [4]byte
		crand.Read(b[:]) //nolint:errcheck // never fails on supported platforms
		c.ReplicaID = "r-" + hex.EncodeToString(b[:])
	}
	if c.LeaseTTL <= 0 {
		if c.RepairInterval > 0 {
			c.LeaseTTL = 3 * c.RepairInterval
		} else {
			c.LeaseTTL = 90 * time.Second
		}
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// shard is one backend daemon and its routing state. name (the base URL)
// is the stable ring identity; instance is the daemon's self-reported id,
// learned from health probes and response headers, which maps
// shard-qualified job ids back to their owner.
type shard struct {
	name string
	base string

	mu          sync.Mutex
	alive       bool // /healthz answered 200 at last contact
	ready       bool // /readyz answered 200: in the ring
	instance    string
	consecFails int
	nextProbe   time.Time
	// drain is the admin drain state machine: "" (active member),
	// "draining" (fenced from the ring, drain in progress), or "drained"
	// (a completed POST .../drain holding the member out of the ring
	// until it is removed or reactivated).
	drain string
	// removed marks a shard ejected from membership by the admin API.
	// Stale probes and relays still holding the pointer check it so a
	// removed shard can never be resurrected into the instance table or
	// the ring.
	removed bool
	// queueDepth and running mirror the shard's last /readyz document —
	// the per-probe load signal exposed as a /metrics gauge.
	queueDepth int
	running    int
	// Flap suppression (see breaker.go): readmits holds the recent probe
	// readmission times inside the flap window; quarantines is the
	// escalation level; probationLeft is the consecutive good probes
	// still owed before the ring takes the shard back (0 = no probation).
	readmits      []time.Time
	quarantines   int
	probationLeft int

	// brk is the shard's live-forward circuit breaker (its own lock).
	brk breaker

	forwarded, failed, retried atomic.Int64
	// inflight is the counting semaphore behind Config.ShardInflight;
	// rejected counts requests turned away at this shard's limit.
	inflight, rejected atomic.Int64
}

func (sh *shard) isAlive() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.alive
}

func (sh *shard) drainState() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.drain
}

// Router is the phmse-router HTTP handler plus its health prober. Create
// with New; call Close to stop probing.
type Router struct {
	cfg   Config
	mux   *http.ServeMux
	hc    *http.Client
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu         sync.RWMutex
	shards     []*shard
	byInstance map[string]*shard
	ring       *ring

	// rebuildMu serializes ring rebuilds end to end (shard-state snapshot
	// through install) so concurrent health transitions cannot interleave
	// and install a ring built from a stale snapshot.
	rebuildMu sync.Mutex

	// adminMu serializes admin membership operations (add, remove, drain)
	// end to end, including their migration passes: overlapping
	// membership changes would race on which ring generation a posterior
	// should move under. Never held together with rt.mu.
	adminMu sync.Mutex

	forwarded, failed, retried atomic.Int64
	noShard, listFanouts       atomic.Int64
	saturated, breakerRefused  atomic.Int64

	// Convergence passes (repair.go), tallied separately for membership
	// changes (migr) and repair sweeps (repair). The kick channel wakes
	// the sweeper early after a membership pass reported failures.
	migr, repair passCounters
	repairKick   chan struct{}
	repairDone   chan struct{}

	// cnode is the replicated-control-plane node (cluster.go): the
	// epoch-stamped membership document and its gossip loop.
	// clusterApplies counts peer documents that changed membership here;
	// leaseSkips counts repair ticks skipped because a peer held the
	// sweeper lease.
	cnode                      *cluster.Node
	clusterApplies, leaseSkips atomic.Int64

	// aud is the admin-plane audit log (audit.go); nil only before New
	// finishes.
	aud *auditor
}

// New builds a router over the configured shards and starts its health
// prober. Shards start optimistically in the ring; the first failed probe
// or forward ejects the dead ones.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		hc:         cfg.HTTPClient,
		start:      time.Now(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		byInstance: make(map[string]*shard),
		repairKick: make(chan struct{}, 1),
		repairDone: make(chan struct{}),
	}
	aud, err := newAuditor(cfg.AuditLog)
	if err != nil {
		return nil, fmt.Errorf("router: opening audit log: %w", err)
	}
	rt.aud = aud
	seen := make(map[string]bool, len(cfg.Shards))
	for _, base := range cfg.Shards {
		base = strings.TrimRight(base, "/")
		if base == "" || seen[base] {
			return nil, fmt.Errorf("router: empty or duplicate shard %q", base)
		}
		seen[base] = true
		rt.shards = append(rt.shards, &shard{name: base, base: base, alive: true, ready: true})
	}
	rt.cnode = cluster.New(cluster.Config{
		ReplicaID:  cfg.ReplicaID,
		Peers:      cfg.Peers,
		Interval:   cfg.GossipInterval,
		AuthToken:  cfg.AdminToken,
		HTTPClient: cfg.HTTPClient,
		OnAdopt:    rt.onClusterAdopt,
		OnConflict: rt.onClusterConflict,
		Logf:       log.Printf,
	}, initialClusterDoc(rt.shards))
	rt.rebuildRing()

	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/posterior", rt.handleJob)
	rt.mux.HandleFunc("POST /v1/jobs/{id}/cancel", rt.handleJob)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /admin/v1/shards", rt.adminAuth(rt.handleAdminShards))
	rt.mux.HandleFunc("POST /admin/v1/shards", rt.adminAuth(rt.handleAdminAddShard))
	rt.mux.HandleFunc("DELETE /admin/v1/shards/{name}", rt.adminAuth(rt.handleAdminRemoveShard))
	rt.mux.HandleFunc("POST /admin/v1/shards/{name}/drain", rt.adminAuth(rt.handleAdminDrainShard))
	rt.mux.HandleFunc("POST /admin/v1/repair", rt.adminAuth(rt.handleAdminRepair))
	rt.mux.HandleFunc("GET /admin/v1/audit", rt.adminAuth(rt.handleAdminAudit))
	rt.mux.HandleFunc("GET /cluster/v1/state", rt.adminAuth(rt.handleClusterState))
	rt.mux.HandleFunc("POST /cluster/v1/state", rt.adminAuth(rt.handleClusterExchange))

	go rt.probeLoop()
	go rt.repairLoop()
	rt.cnode.Start()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the health prober, the repair sweeper, and the audit log.
// In-flight forwards are unaffected.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	<-rt.done
	<-rt.repairDone
	rt.cnode.Close()
	rt.aud.close()
}

// shardList returns a point-in-time copy of the membership slice. With
// dynamic membership the slice mutates at runtime, so every iteration —
// probing, broadcasting, metrics — goes through this copy instead of
// reading rt.shards unlocked.
func (rt *Router) shardList() []*shard {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]*shard(nil), rt.shards...)
}

// shardsByLoad returns the membership snapshot sorted least-loaded
// first by the queue_depth+running gauges the prober collects. Broadcast
// lookups (an unattributable job id, a posterior location fan-out) probe
// in this order: the answer is equally likely anywhere, so asking the
// idle shards first keeps sequential fan-outs off the busy ones — a
// first step toward load-aware ring weighting. The sort is stable, so
// equally-loaded shards keep the membership order.
func (rt *Router) shardsByLoad() []*shard {
	shards := rt.shardList()
	type loaded struct {
		sh   *shard
		load int
	}
	ranked := make([]loaded, len(shards))
	for i, sh := range shards {
		sh.mu.Lock()
		ranked[i] = loaded{sh, sh.queueDepth + sh.running}
		sh.mu.Unlock()
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].load < ranked[j].load })
	for i, r := range ranked {
		shards[i] = r.sh
	}
	return shards
}

// currentRing returns the installed ring generation.
func (rt *Router) currentRing() *ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// rebuildRing reassembles the ring from the currently ready, undrained
// shards. rebuildMu makes snapshot-and-install atomic with respect to
// other rebuilds: every transition updates its shard's state before
// calling here, so whichever rebuild runs last reads (and installs) a
// ring that reflects all earlier transitions — a stale ring can never
// outlast the final rebuild of a burst. Draining and removed shards are
// fenced here, so a healthy probe can never readmit them.
func (rt *Router) rebuildRing() {
	rt.rebuildMu.Lock()
	defer rt.rebuildMu.Unlock()
	shards := rt.shardList()
	ready := make([]*shard, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		ok := sh.ready && sh.drain == "" && !sh.removed
		sh.mu.Unlock()
		// An open breaker fences the shard exactly like a failed probe; a
		// half-open one stays in the ring so the trial request can reach
		// it. Checked outside sh.mu — the breaker has its own lock.
		if ok && !sh.brk.isOpen() {
			ready = append(ready, sh)
		}
	}
	r := buildRing(ready, rt.cfg.VNodes)
	rt.mu.Lock()
	rt.ring = r
	rt.mu.Unlock()
}

// replicasFor returns the failover order of a routing key: every ready
// shard, nearest ring arc first.
func (rt *Router) replicasFor(key string) []*shard {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.replicas(key, len(rt.shards))
}

// shardForJob maps a shard-qualified job id to the shard whose instance
// minted it, nil when the id is unqualified or the instance is unknown.
func (rt *Router) shardForJob(id string) *shard {
	instance := encode.JobInstance(id)
	if instance == "" {
		return nil
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.byInstance[instance]
}

// learnInstance records a shard's self-reported instance id, keeping the
// instance → shard table current across restarts that change identity. A
// removed shard is never recorded: a probe or relay still in flight when
// the admin API ejected it must not resurrect the mapping.
func (rt *Router) learnInstance(instance string, sh *shard) {
	sh.mu.Lock()
	if sh.removed {
		sh.mu.Unlock()
		return
	}
	old := sh.instance
	sh.instance = instance
	sh.mu.Unlock()
	if old == instance {
		return
	}
	rt.mu.Lock()
	if old != "" && rt.byInstance[old] == sh {
		delete(rt.byInstance, old)
	}
	rt.byInstance[instance] = sh
	rt.mu.Unlock()
}

func writeError(w http.ResponseWriter, httpStatus int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(encode.ErrorEnvelope{Error: encode.ErrorBody{Code: code, Message: message}}) //nolint:errcheck
}

func (rt *Router) writeNoShard(w http.ResponseWriter) {
	rt.noShard.Add(1)
	writeError(w, http.StatusServiceUnavailable, encode.CodeNoShard, "no healthy shard available")
}

// admit reserves an in-flight slot on sh under the per-shard limit; the
// caller must pair a true return with exactly one release. With no limit
// configured every request is admitted and release is a no-op counter.
func (rt *Router) admit(sh *shard) bool {
	limit := int64(rt.cfg.ShardInflight)
	if limit <= 0 {
		return true
	}
	if sh.inflight.Add(1) > limit {
		sh.inflight.Add(-1)
		sh.rejected.Add(1)
		return false
	}
	return true
}

func (rt *Router) release(sh *shard) {
	if rt.cfg.ShardInflight > 0 {
		sh.inflight.Add(-1)
	}
}

// writeSaturated answers a request the in-flight limiter refused: the
// same 429 + Retry-After contract as a daemon's full queue, so client
// retry policies treat both backpressure tiers identically.
func (rt *Router) writeSaturated(w http.ResponseWriter, message string) {
	rt.saturated.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, encode.CodeQueueFull, message)
}

// send issues one forwarded request to a shard.
func (rt *Router) send(r *http.Request, sh *shard, method, pathq string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, sh.base+pathq, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return rt.hc.Do(req)
}

// relay copies a backend response to the caller — status, the headers the
// v1 API defines, and the body — and opportunistically learns the shard's
// instance identity from the response header.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, sh *shard) {
	defer resp.Body.Close()
	if instance := resp.Header.Get("X-Phmsed-Instance"); instance != "" {
		rt.learnInstance(instance, sh)
	}
	for _, h := range []string{"Content-Type", "Retry-After", "X-Phmsed-Instance"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
	rt.forwarded.Add(1)
	sh.forwarded.Add(1)
}

// discard drains and closes a response the router decided not to relay.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

// dialFailure reports whether a transport error happened before the
// request left the router (the dial itself failed), which makes a replay
// safe even for non-idempotent methods: no backend saw a byte of it.
func dialFailure(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// forwardTo relays a request to one specific shard under the retry
// policy. Idempotent GETs retry through transport failures and 5xx
// responses; other methods get exactly one attempt — a connection cut
// mid-POST may have already enqueued the job, and replaying it would
// duplicate work. A transport failure ejects the shard from the ring
// immediately (the probe loop readmits it when it recovers), and every
// attempt's outcome feeds the shard's circuit breaker. Reports whether a
// response was written — including the 429 when the shard is at its
// in-flight limit and the 503 when its breaker refuses the request.
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, sh *shard, pathq string, body []byte) bool {
	brkOK, trial := rt.breakerAllow(sh)
	if !brkOK {
		rt.writeBreakerRefused(w, sh.name)
		return true
	}
	if !rt.admit(sh) {
		rt.breakerCancel(sh, trial)
		rt.writeSaturated(w, fmt.Sprintf("shard %s at its in-flight limit", sh.name))
		return true
	}
	defer rt.release(sh)
	attempts := 1
	if r.Method == http.MethodGet {
		attempts = rt.cfg.Retry.MaxAttempts
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.retried.Add(1)
			sh.retried.Add(1)
			select {
			case <-time.After(rt.cfg.Retry.Delay(i-1, nil)):
			case <-r.Context().Done():
				rt.breakerCancel(sh, trial)
				return false
			}
		}
		resp, err := rt.send(r, sh, r.Method, pathq, body)
		if err != nil {
			rt.failed.Add(1)
			sh.failed.Add(1)
			rt.breakerRecord(sh, false, trial)
			trial = false
			rt.eject(sh)
			continue
		}
		if resp.StatusCode >= 500 && r.Method == http.MethodGet && i+1 < attempts {
			rt.breakerRecord(sh, false, trial)
			trial = false
			discard(resp)
			continue
		}
		rt.breakerRecord(sh, resp.StatusCode < 500, trial)
		rt.relay(w, resp, sh)
		return true
	}
	return false
}

// handleSolve routes a submission: parse once to extract the routing
// decision, then forward the raw body unchanged.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, "reading request: "+err.Error())
		return
	}
	key, warmRef, err := encode.SolveRouting(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, err.Error())
		return
	}

	// Warm-started submissions must land on the shard retaining the
	// referenced posterior — the job id's instance qualifier names the
	// shard that minted it. Since a migration pass may have moved the
	// posterior off its minting shard (membership changed), the qualifier
	// is a hint, verified with an exact-id index query; when it fails — or
	// the qualifier names no current member — the posterior indexes of the
	// live shards locate the current holder. A still-unresolved reference
	// falls through to ring routing: identical topologies route to the
	// posterior's shard anyway, and a wrong shard answers an honest
	// 404/409.
	if warmRef != nil {
		sh := rt.shardForJob(warmRef.Job)
		if sh != nil && !rt.holdsPosterior(r.Context(), sh, warmRef.Job) {
			sh = nil
		}
		if sh == nil {
			sh = rt.locatePosterior(r.Context(), warmRef.Job)
		}
		if sh != nil {
			if sh.drainState() != "" {
				writeError(w, http.StatusServiceUnavailable, encode.CodeDraining,
					fmt.Sprintf("shard %s is draining; its posteriors are migrating — retry", sh.name))
				return
			}
			if !rt.forwardTo(w, r, sh, "/v1/solve", body) {
				rt.writeNoShard(w)
			}
			return
		}
	}

	// Ring replicas are the failover order. A POST fails over only on dial
	// failures — the request never left, so no shard could have enqueued
	// it; any later transport error is ambiguous and surfaces as 502. A
	// replica at its in-flight limit — or one whose circuit breaker
	// refuses the request — is skipped the same way a dead one is; a
	// submission finding every replica saturated gets the 429. Backend
	// responses (including 429 backpressure with its Retry-After) relay
	// verbatim: the client's own RetryPolicy honours them.
	sawSaturated := false
	for _, sh := range rt.replicasFor(key) {
		brkOK, trial := rt.breakerAllow(sh)
		if !brkOK {
			continue
		}
		if !rt.admit(sh) {
			rt.breakerCancel(sh, trial)
			sawSaturated = true
			continue
		}
		resp, err := rt.send(r, sh, http.MethodPost, "/v1/solve", body)
		if err != nil {
			rt.release(sh)
			rt.failed.Add(1)
			sh.failed.Add(1)
			rt.breakerRecord(sh, false, trial)
			rt.eject(sh)
			if dialFailure(err) {
				rt.retried.Add(1)
				sh.retried.Add(1)
				continue
			}
			writeError(w, http.StatusBadGateway, encode.CodeInternal,
				fmt.Sprintf("forwarding solve to %s: %v", sh.name, err))
			return
		}
		rt.breakerRecord(sh, resp.StatusCode < 500, trial)
		rt.relay(w, resp, sh)
		rt.release(sh)
		return
	}
	if sawSaturated {
		rt.writeSaturated(w, "all replicas at their in-flight limit")
		return
	}
	rt.writeNoShard(w)
}

// handleJob forwards a job-targeted request to its owning shard. Ids the
// router cannot attribute (unqualified, or an instance not yet learned)
// are broadcast to the live shards: exactly one shard owns any real job,
// everyone else answers 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	pathq := r.URL.Path
	if r.URL.RawQuery != "" {
		pathq += "?" + r.URL.RawQuery
	}
	if sh := rt.shardForJob(r.PathValue("id")); sh != nil {
		if !rt.forwardTo(w, r, sh, pathq, nil) {
			rt.writeNoShard(w)
		}
		return
	}
	sawNotFound, sawSaturated := false, false
	for _, sh := range rt.shardsByLoad() {
		if !sh.isAlive() {
			continue
		}
		// A breaker-refused shard may still own the job, so — like the
		// saturated case below — the broadcast must answer "retry", never
		// a false "not found".
		brkOK, trial := rt.breakerAllow(sh)
		if !brkOK {
			sawSaturated = true
			continue
		}
		if !rt.admit(sh) {
			rt.breakerCancel(sh, trial)
			sawSaturated = true
			continue
		}
		resp, err := rt.send(r, sh, r.Method, pathq, nil)
		if err != nil {
			rt.release(sh)
			rt.failed.Add(1)
			sh.failed.Add(1)
			rt.breakerRecord(sh, false, trial)
			rt.eject(sh)
			continue
		}
		rt.breakerRecord(sh, resp.StatusCode < 500, trial)
		if resp.StatusCode == http.StatusNotFound {
			sawNotFound = true
			discard(resp)
			rt.release(sh)
			continue
		}
		rt.relay(w, resp, sh)
		rt.release(sh)
		return
	}
	// A saturated shard was skipped, so the job may simply live where the
	// router could not look: tell the client to retry, not that the job
	// does not exist.
	if sawSaturated {
		rt.writeSaturated(w, "shard at its in-flight limit; retry")
		return
	}
	if sawNotFound {
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job")
		return
	}
	rt.writeNoShard(w)
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	total, ready := rt.shardCounts()
	writeJSON(w, http.StatusOK, RouterHealth{Status: "ok", Shards: total, ReadyShards: ready})
}

// handleReady reports whether the router can currently place new work:
// at least one shard in the ring.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	total, ready := rt.shardCounts()
	body := RouterHealth{Status: "ok", Shards: total, ReadyShards: ready}
	if ready == 0 {
		body.Status = "no_shard"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// RouterHealth is the body of the router's /healthz and /readyz.
type RouterHealth struct {
	Status      string `json:"status"`
	Shards      int    `json:"shards"`
	ReadyShards int    `json:"ready_shards"`
}

func (rt *Router) shardCounts() (total, ready int) {
	shards := rt.shardList()
	total = len(shards)
	for _, sh := range shards {
		sh.mu.Lock()
		if sh.ready && sh.drain == "" {
			ready++
		}
		sh.mu.Unlock()
	}
	return total, ready
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}
