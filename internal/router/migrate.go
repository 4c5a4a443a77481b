package router

// Membership mutation and the posterior transfer protocol. Every
// membership change follows the same shape:
//
//  1. mutate membership (append a shard / fence one behind a drain state),
//  2. rebuild the ring under rebuildMu,
//  3. run one convergence pass (converge, repair.go) under the new ring:
//     stream each misplaced posterior from its holder to its ring owner,
//     deleting the source copy only after the destination acknowledged
//     the import. An add or reactivation passes every live member as a
//     source; a drain passes just the departing shard.
//
// The pass is idempotent and fail-safe by construction: a transfer that
// dies anywhere before the destination's 2xx leaves the source snapshot
// untouched (it simply counts as failed and can be re-driven by a later
// pass), a duplicate PUT replaces the same entry in place, and an
// unacknowledged delete at worst leaves a duplicate the next pass prunes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"phmse/internal/client"
	"phmse/internal/cluster"
	"phmse/internal/encode"
)

var errShardExists = errors.New("router: shard is already an active member")

// errOversizeTransfer marks a transfer body over maxRequestBody: the
// document can never fit through the protocol, so retrying is pointless.
var errOversizeTransfer = errors.New("router: transfer body exceeds the protocol limit")

// addShard registers a new backend (or reactivates a drained member) and
// converges every live member's posteriors onto the grown ring. The new
// shard enters pessimistic (out of the ring) and is admitted by a
// synchronous probe, so a dead base URL is registered but owns no arcs
// until it answers.
func (rt *Router) addShard(ctx context.Context, base string) (*encode.AddShardResponse, error) {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(ctx) // fold in any adopted-but-unapplied peer document first

	if sh := rt.findShard(base); sh != nil {
		sh.mu.Lock()
		wasDrained := sh.drain != ""
		sh.drain = ""
		quarantines := sh.quarantines
		sh.mu.Unlock()
		if !wasDrained {
			rt.aud.append(encode.AuditEntry{Op: "add", Shard: base, Outcome: "conflict", Origin: rt.cfg.ReplicaID})
			return nil, errShardExists
		}
		// Reactivation: lift the drain fence (in the document first, then
		// locally), re-probe, and converge — the shard's old arcs (and
		// their posteriors) come back onto it.
		rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
			cluster.SetMember(doc, encode.ClusterMember{Base: sh.name, Quarantines: quarantines})
			return true
		})
		rt.probeShard(ctx, sh)
		rt.rebuildRing()
		rep := rt.migrate(ctx, rt.liveSources())
		rt.aud.append(encode.AuditEntry{
			Op: "reactivate", Shard: sh.name, Origin: rt.cfg.ReplicaID,
			Outcome: passOutcome(rep.Failed), Migrated: rep.Migrated, Failed: rep.Failed,
		})
		return &encode.AddShardResponse{Shard: rt.shardInfo(sh), Reactivated: true, Migration: rep}, nil
	}

	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		cluster.SetMember(doc, encode.ClusterMember{Base: base})
		return true
	})
	sh := &shard{name: base, base: base}
	rt.mu.Lock()
	rt.shards = append(rt.shards, sh)
	rt.mu.Unlock()
	rt.probeShard(ctx, sh)
	// The probe rebuilds only on a readiness transition; rebuild once more
	// unconditionally so the install is never skipped.
	rt.rebuildRing()
	rep := rt.migrate(ctx, rt.liveSources())
	rt.aud.append(encode.AuditEntry{
		Op: "add", Shard: sh.name, Origin: rt.cfg.ReplicaID,
		Outcome: passOutcome(rep.Failed), Migrated: rep.Migrated, Failed: rep.Failed,
	})
	return &encode.AddShardResponse{Shard: rt.shardInfo(sh), Migration: rep}, nil
}

// migrate runs a membership change's convergence pass over sources under
// the current ring and reports it as a migration. A pass that left
// posteriors behind should not wait out the repair interval: it kicks an
// immediate anti-entropy sweep to re-drive them.
func (rt *Router) migrate(ctx context.Context, sources []*shard) encode.MigrationReport {
	t := rt.converge(ctx, rt.currentRing(), sources)
	rt.migr.record(t)
	if t.failed > 0 {
		rt.kickRepair()
	}
	return encode.MigrationReport{Migrated: t.moved, Failed: t.failed, Skipped: t.skipped, Bytes: t.bytes}
}

// drainOutcome condenses a drain/remove report for the audit log.
func drainOutcome(rep *encode.DrainReport) string {
	if rep.TimedOut {
		return "timed_out"
	}
	return passOutcome(rep.Migration.Failed)
}

// removeShard ejects a member. mode "drain" fences the shard, waits for
// its in-flight jobs (bounded by deadline), and migrates every retained
// posterior to its new owner before ejecting; "immediate" ejects with no
// wait and no migration — the escape hatch for a shard that is already
// dead and can serve nothing.
func (rt *Router) removeShard(ctx context.Context, sh *shard, mode string, deadline time.Duration) *encode.DrainReport {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(ctx)
	rep := &encode.DrainReport{Mode: mode, Removed: true}

	sh.mu.Lock()
	alreadyGone := sh.removed
	sh.drain = "draining"
	sh.mu.Unlock()
	if alreadyGone { // lost a race with a concurrent remove: nothing left to do
		rep.Shard = rt.shardInfo(sh)
		return rep
	}
	// Fence the member in the document first: peers stop routing to it
	// within a gossip round, while this replica runs the migration.
	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		if m := cluster.FindMember(doc, sh.name); m != nil {
			m.DrainState = "draining"
		}
		return true
	})
	rt.rebuildRing() // fence: the shard owns no arcs, new solves stop landing

	if mode == "drain" {
		rep.TimedOut, rep.WaitedMillis, rep.InflightAtEnd = rt.awaitQuiesce(ctx, sh, deadline)
		rep.Migration = rt.migrate(ctx, []*shard{sh})
	}

	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		return cluster.RemoveMember(doc, sh.name)
	})
	// Eject from membership. removed is set before the slice and instance
	// table are touched so a stale probe or relay observing the pointer
	// can never re-register it.
	sh.mu.Lock()
	sh.removed = true
	instance := sh.instance
	sh.mu.Unlock()
	rt.mu.Lock()
	for i, s := range rt.shards {
		if s == sh {
			rt.shards = append(rt.shards[:i], rt.shards[i+1:]...)
			break
		}
	}
	if instance != "" && rt.byInstance[instance] == sh {
		delete(rt.byInstance, instance)
	}
	rt.mu.Unlock()
	rep.Shard = rt.shardInfo(sh)
	rt.aud.append(encode.AuditEntry{
		Op: "remove", Shard: sh.name, Mode: mode, Origin: rt.cfg.ReplicaID,
		Outcome: drainOutcome(rep), InflightAtEnd: rep.InflightAtEnd,
		Migrated: rep.Migration.Migrated, Failed: rep.Migration.Failed,
	})
	return rep
}

// drainShard fences a member and migrates its posteriors like a drain-mode
// removal, but keeps it registered in state "drained" — the
// decommission-later half of the drain state machine. POST
// /admin/v1/shards with the same base reactivates it.
func (rt *Router) drainShard(ctx context.Context, sh *shard, deadline time.Duration) *encode.DrainReport {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(ctx)
	rep := &encode.DrainReport{Mode: "drain"}

	sh.mu.Lock()
	already := sh.drain == "drained"
	sh.drain = "draining"
	sh.mu.Unlock()
	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		m := cluster.FindMember(doc, sh.name)
		if m == nil || m.DrainState == "draining" {
			return false
		}
		m.DrainState = "draining"
		return true
	})
	rt.rebuildRing()
	if !already {
		rep.TimedOut, rep.WaitedMillis, rep.InflightAtEnd = rt.awaitQuiesce(ctx, sh, deadline)
		rep.Migration = rt.migrate(ctx, []*shard{sh})
	}
	sh.mu.Lock()
	sh.drain = "drained"
	sh.mu.Unlock()
	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		m := cluster.FindMember(doc, sh.name)
		if m == nil || m.DrainState == "drained" {
			return false
		}
		m.DrainState = "drained"
		return true
	})
	rep.Shard = rt.shardInfo(sh)
	rt.aud.append(encode.AuditEntry{
		Op: "drain", Shard: sh.name, Origin: rt.cfg.ReplicaID,
		Outcome: drainOutcome(rep), InflightAtEnd: rep.InflightAtEnd,
		Migrated: rep.Migration.Migrated, Failed: rep.Migration.Failed,
	})
	return rep
}

// awaitQuiesce polls the shard's /readyz until its queued+running count
// reaches zero, the deadline passes, or the shard stops answering
// repeatedly (a dead shard never quiesces — waiting out a long deadline
// on it would stall the admin call for nothing).
func (rt *Router) awaitQuiesce(ctx context.Context, sh *shard, deadline time.Duration) (timedOut bool, waitedMillis int64, inflight int) {
	start := time.Now()
	end := start.Add(deadline)
	failures := 0
	for {
		var rs encode.HealthStatus
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		_, answered := rt.probeGet(pctx, sh, "/readyz", &rs)
		cancel()
		if answered {
			failures = 0
			inflight = rs.QueueDepth + rs.Running
			if inflight == 0 {
				return false, time.Since(start).Milliseconds(), 0
			}
		} else {
			failures++
			inflight = -1
			if failures >= 3 {
				return true, time.Since(start).Milliseconds(), inflight
			}
		}
		if !time.Now().Before(end) {
			return true, time.Since(start).Milliseconds(), inflight
		}
		select {
		case <-ctx.Done():
			return true, time.Since(start).Milliseconds(), inflight
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// transferPosterior moves one retained posterior: export the document
// from the source, import it into the destination, and delete the source
// copy only after the destination's ack. Any failure before the ack
// returns an error with the source untouched; a failure of the delete
// itself is logged but not an error — the posterior is safely at its new
// owner, and the stale source copy is pruned by a later pass.
//
// The export body is piped straight into the import request
// (streamPosterior) — the router never buffers the document, so a
// transfer costs O(copy-buffer) memory instead of O(document), and a
// multi-megabyte covariance document streams through back-pressured by
// the destination. A streamed body cannot be replayed, so the retry
// policy wraps the whole export+import pair: each attempt re-opens the
// export, inside MigrateTimeout. The PUT is safe to replay: an import of
// the same id replaces the entry in place.
func (rt *Router) transferPosterior(ctx context.Context, src, dst *shard, info encode.PosteriorInfo) error {
	tctx, cancel := context.WithTimeout(ctx, rt.cfg.MigrateTimeout)
	defer cancel()
	esc := url.PathEscape(info.Job)
	if err := rt.retry(tctx, func() (bool, error) { return rt.streamPosterior(tctx, src, dst, esc) }); err != nil {
		return err
	}
	if _, err := rt.adminDo(tctx, http.MethodDelete, src.base+"/v1/posteriors/"+esc, nil); err != nil {
		log.Printf("phmse-router: migration: deleting %s from %s after ack: %v", info.Job, src.name, err)
	}
	return nil
}

// retry runs attempt under the transfer retry policy, the one loop every
// transfer-protocol request shares. Every protocol request is replay-safe
// — the index and export are reads, the import replaces the same id in
// place, the delete is naturally idempotent — so an attempt that reports
// its failure retryable backs off (floored by any Retry-After the backend
// sent) and runs again, up to MaxAttempts; a terminal failure returns on
// first sight.
func (rt *Router) retry(ctx context.Context, attempt func() (retryable bool, err error)) error {
	var last error
	attempts := rt.cfg.Retry.MaxAttempts
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(rt.cfg.Retry.Delay(i-1, last)):
			case <-ctx.Done():
				return fmt.Errorf("%w (last: %v)", ctx.Err(), last)
			}
		}
		retryable, err := attempt()
		if err == nil || !retryable {
			return err
		}
		last = err
	}
	return fmt.Errorf("after %d attempts: %w", attempts, last)
}

// streamPosterior is one export→import attempt: it opens the source's
// posterior export and pipes the response body directly into the
// destination's import PUT through a size fence that errors — rather
// than truncates — past the protocol's transfer limit. Returns whether
// a failure is worth retrying (transport errors, 5xx, 429) or terminal
// (oversize body, 507, other 4xx).
func (rt *Router) streamPosterior(ctx context.Context, src, dst *shard, esc string) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.base+"/v1/jobs/"+esc+"/posterior?cov=full", nil)
	if err != nil {
		return false, fmt.Errorf("export: %w", err)
	}
	rt.authTransfer(req)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return true, fmt.Errorf("export: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer discard(resp)
		retryable, err := classifyTransferResponse(resp)
		return retryable, fmt.Errorf("export: %w", err)
	}
	if resp.ContentLength > maxRequestBody {
		discard(resp)
		return false, fmt.Errorf("export: %d-byte document: %w", resp.ContentLength, errOversizeTransfer)
	}

	// Import leg: the export body is the PUT body. The cap reader fails
	// the stream past the limit so a truncated document is never passed
	// off as the import — the destination sees an aborted body, not a
	// silently clipped one.
	cr := &capReader{r: resp.Body, limit: maxRequestBody}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPut, dst.base+"/v1/posteriors/"+esc, cr)
	if err != nil {
		resp.Body.Close()
		return false, fmt.Errorf("import: %w", err)
	}
	preq.Header.Set("Content-Type", "application/json")
	if resp.ContentLength >= 0 {
		preq.ContentLength = resp.ContentLength
	}
	rt.authTransfer(preq)
	presp, err := rt.hc.Do(preq)
	resp.Body.Close()
	if err != nil {
		if cr.oversize {
			return false, fmt.Errorf("export of %s: %w", esc, errOversizeTransfer)
		}
		return true, fmt.Errorf("import: %w", err)
	}
	defer discard(presp)
	if presp.StatusCode >= 200 && presp.StatusCode <= 299 {
		return false, nil
	}
	retryable, err = classifyTransferResponse(presp)
	return retryable, fmt.Errorf("import: %w", err)
}

// authTransfer stamps the router's admin token onto a transfer-protocol
// request.
func (rt *Router) authTransfer(req *http.Request) {
	if rt.cfg.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+rt.cfg.AdminToken)
	}
}

// classifyTransferResponse shapes a non-2xx transfer response as a
// *client.APIError (so RetryPolicy.Delay honours Retry-After) and
// decides retryability: 429 backpressure and 5xx retry; 507
// posterior_budget (a full store does not drain on the retry timescale;
// the pass counts the posterior failed and moves on) and any other 4xx
// (the request itself is wrong) are terminal.
func classifyTransferResponse(resp *http.Response) (retryable bool, err error) {
	var retryAfter time.Duration
	if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	retryable = resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode >= 500 && resp.StatusCode != http.StatusInsufficientStorage)
	return retryable, transferError(resp.StatusCode, retryAfter, body)
}

// capReader passes through at most limit bytes and then fails the read —
// a stream that would exceed the transfer protocol's size limit must
// abort loudly, never truncate.
type capReader struct {
	r        io.Reader
	n        int64
	limit    int64
	oversize bool
}

func (c *capReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if c.n > c.limit {
		c.oversize = true
		return 0, errOversizeTransfer
	}
	return n, err
}

// adminDo issues one transfer-protocol request, presenting the router's
// admin token, and returns the response body of a 2xx. Transport errors
// retry under the shared policy and non-2xx responses are classified by
// classifyTransferResponse. A 2xx body over the protocol's transfer size
// limit is terminal: the document can never fit, and a truncated read
// must never be passed off as the export.
func (rt *Router) adminDo(ctx context.Context, method, u string, body []byte) (data []byte, err error) {
	err = rt.retry(ctx, func() (bool, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return false, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rt.authTransfer(req)
		resp, err := rt.hc.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return classifyTransferResponse(resp)
		}
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxRequestBody+1))
		if err != nil {
			return true, err
		}
		if len(data) > maxRequestBody {
			return false, fmt.Errorf("%s %s: %d-byte response: %w", method, u, maxRequestBody, errOversizeTransfer)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// transferError shapes a non-2xx transfer response as a *client.APIError,
// so RetryPolicy.Delay floors the next backoff by the server's
// Retry-After exactly as the typed client would.
func transferError(status int, retryAfter time.Duration, body []byte) error {
	ae := &client.APIError{HTTPStatus: status, Code: encode.CodeInternal, RetryAfter: retryAfter}
	var env encode.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	} else {
		msg := string(body)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		ae.Message = msg
	}
	return ae
}

// fetchPosteriorIndex reads one shard's retained-posterior index.
func (rt *Router) fetchPosteriorIndex(ctx context.Context, sh *shard, prefix string) (encode.PosteriorIndex, error) {
	u := sh.base + "/v1/posteriors"
	if prefix != "" {
		u += "?prefix=" + url.QueryEscape(prefix)
	}
	var idx encode.PosteriorIndex
	data, err := rt.adminDo(ctx, http.MethodGet, u, nil)
	if err != nil {
		return idx, err
	}
	return idx, json.Unmarshal(data, &idx)
}

// holdsPosterior verifies a shard still retains the posterior of jobID
// with an exact-id index query. Errors count as holding: when the shard
// cannot be asked (down, or predates the index endpoint), the router
// falls back to the instance-qualifier routing that was correct before
// migrations existed.
func (rt *Router) holdsPosterior(ctx context.Context, sh *shard, jobID string) bool {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	idx, err := rt.fetchPosteriorIndex(pctx, sh, jobID)
	if err != nil {
		return true
	}
	for _, info := range idx.Posteriors {
		if info.Job == jobID {
			return true
		}
	}
	return false
}

// locatePosterior finds the live shard retaining a posterior whose job
// id's instance qualifier no longer names a member — the shard that
// minted it was removed and its posteriors migrated. Exact-id index
// queries fan out to the live shards, least-loaded first — the holder is
// equally likely anywhere, so the sequential probes stay off the busy
// shards; the first holder wins (migration guarantees at most one
// current owner, stale duplicates serve the same document).
func (rt *Router) locatePosterior(ctx context.Context, jobID string) *shard {
	for _, sh := range rt.shardsByLoad() {
		if !sh.isAlive() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		idx, err := rt.fetchPosteriorIndex(pctx, sh, jobID)
		cancel()
		if err != nil {
			continue
		}
		for _, info := range idx.Posteriors {
			if info.Job == jobID {
				return sh
			}
		}
	}
	return nil
}
