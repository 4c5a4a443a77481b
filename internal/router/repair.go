package router

// Posterior placement convergence, and the anti-entropy loop that drives
// it. One pass, converge, is the router's only placement procedure: index
// each source shard, look up each posterior's ring owner, and re-drive
// every misplaced one through the ack-before-delete transfer protocol
// (migrate.go). Membership changes and repair sweeps differ only in the
// shards they pass as sources:
//
//   - an add, a reactivation, and every repair sweep pass every live
//     member not fenced by a drain or removal (liveSources);
//   - a drain or a drain-mode removal passes just the departing shard,
//     which owns no arcs under the fenced ring, so all its holdings move.
//
// The periodic sweep re-drives what goes wrong between membership
// changes: a transfer that failed (destination down mid-stream, import
// rejected, source briefly unreachable) strands its posterior on a shard
// the ring does not map it to, and a shard that crashed and rejoined
// holds (and misses) posteriors the ring reassigned while it was away. The pass is
// idempotent and convergent — running it twice is merely wasteful, and
// any interrupted transfer leaves the source intact for the next pass.
//
// Passes serialize under adminMu, so two can never race on ring
// generations. Draining and drained shards are fenced on both sides of a
// sweep: never a source (the drain owns its own pass) and never a
// destination (they own no ring arcs, and a defensive check skips them
// even if a stale ring says otherwise).

import (
	"context"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/encode"
)

// repairLoop drives periodic sweeps until Close. The interval is
// jittered ±20% so multiple routers over the same cluster spread out; a
// kick (a migration pass that reported failures) wakes the sweeper
// immediately.
func (rt *Router) repairLoop() {
	defer close(rt.repairDone)
	if rt.cfg.RepairInterval < 0 {
		return
	}
	for {
		t := time.NewTimer(jitterInterval(rt.cfg.RepairInterval))
		select {
		case <-rt.stop:
			t.Stop()
			return
		case <-t.C:
		case <-rt.repairKick:
			t.Stop()
		}
		rt.repairTick()
	}
}

// repairTick is one loop iteration: acquire (or renew) the cluster-wide
// sweeper lease, and only then sweep. With peers configured, exactly one
// replica holds a live lease per interval — the others observe it via
// gossip and skip, so two routers never race duplicate transfers of the
// same posterior. A crashed holder's lease expires after LeaseTTL (3×
// the interval by default) and any peer takes over. Single-replica
// deployments always acquire their own lease. The forced sweep (POST
// /admin/v1/repair → RepairNow) stays unconditional: an operator asking
// for a sweep gets one.
func (rt *Router) repairTick() {
	if !rt.tryRepairLease() {
		return
	}
	rt.RepairNow(context.Background())
}

// jitterInterval spreads d over [0.8d, 1.2d).
func jitterInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/5 + time.Duration(rand.Int63n(int64(d)/5*2+1))
}

// kickRepair schedules an immediate sweep; a no-op when one is already
// pending or the loop is disabled.
func (rt *Router) kickRepair() {
	select {
	case rt.repairKick <- struct{}{}:
	default:
	}
}

// RepairNow runs one synchronous anti-entropy sweep and reports what it
// did. Exported for tests and served at POST /admin/v1/repair; the
// background loop calls it on its jittered cadence.
func (rt *Router) RepairNow(ctx context.Context) encode.RepairReport {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	t := rt.converge(ctx, rt.currentRing(), rt.liveSources())
	rt.repair.record(t)
	rep := encode.RepairReport{Scanned: t.scanned, Repaired: t.moved, Failed: t.failed, Skipped: t.skipped, Bytes: t.bytes}
	if rep.Repaired > 0 || rep.Failed > 0 {
		rt.aud.append(encode.AuditEntry{
			Op:       "repair",
			Origin:   rt.cfg.ReplicaID,
			Outcome:  passOutcome(rep.Failed),
			Migrated: rep.Repaired,
			Failed:   rep.Failed,
		})
	}
	return rep
}

// tally is what one convergence pass did: posteriors indexed, moved to
// their owner (destination acknowledged, source deleted), failed (left
// intact on the source; a failed shard index counts once), and skipped
// (no routing key, no owner, or a fenced destination), plus bytes moved.
type tally struct {
	scanned, moved, failed, skipped int
	bytes                           int64
}

// passOutcome condenses a pass with the given failure count for the
// audit log.
func passOutcome(failed int) string {
	if failed > 0 {
		return "partial"
	}
	return "ok"
}

// passCounters accumulates tallies for /metrics: one set for membership
// passes, one for repair sweeps.
type passCounters struct {
	passes, moved, failed, skipped, bytes atomic.Int64
}

func (c *passCounters) record(t tally) {
	c.passes.Add(1)
	c.moved.Add(int64(t.moved))
	c.failed.Add(int64(t.failed))
	c.skipped.Add(int64(t.skipped))
	c.bytes.Add(t.bytes)
}

// liveSources is the sweep source rule: every live member not fenced by
// a drain or removal. A breaker-open shard still answers its transfer
// endpoints (they are not live v1 traffic), so it stays a valid source —
// its holdings belong elsewhere while it owns no arcs.
func (rt *Router) liveSources() []*shard {
	var sources []*shard
	for _, sh := range rt.shardList() {
		sh.mu.Lock()
		ok := sh.alive && sh.drain == "" && !sh.removed
		sh.mu.Unlock()
		if ok {
			sources = append(sources, sh)
		}
	}
	return sources
}

// converge is one placement pass, run under adminMu: every posterior held
// by sources whose owner under r is another shard is transferred there.
// Transfers fan out under one RepairConcurrency semaphore across the whole
// pass, so a wide pass cannot dogpile the cluster with parallel streams.
func (rt *Router) converge(ctx context.Context, r *ring, sources []*shard) tally {
	var t tally
	sem := make(chan struct{}, rt.cfg.RepairConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards t once transfers are in flight
	count := func(n *int) {
		mu.Lock()
		*n++
		mu.Unlock()
	}

	for _, src := range sources {
		idx, err := rt.fetchPosteriorIndex(ctx, src, "")
		if err != nil {
			log.Printf("phmse-router: converge: indexing %s: %v", src.name, err)
			count(&t.failed)
			continue
		}
		for _, info := range idx.Posteriors {
			count(&t.scanned)
			if info.TopologyHash == "" {
				count(&t.skipped)
				continue
			}
			dst := r.lookup(info.TopologyHash)
			if dst == src {
				continue // correctly placed
			}
			// No owner (empty ring), or a defensive fence: the ring
			// excludes draining shards, but a drain that started after this
			// ring was captured must never become a destination.
			if dst == nil || dst.drainState() != "" || !dst.isAlive() {
				count(&t.skipped)
				continue
			}
			wg.Add(1)
			go func(src, dst *shard, info encode.PosteriorInfo) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if err := rt.transferPosterior(ctx, src, dst, info); err != nil {
					log.Printf("phmse-router: converge: moving %s (%s -> %s): %v",
						info.Job, src.name, dst.name, err)
					count(&t.failed)
					return
				}
				mu.Lock()
				t.moved++
				t.bytes += info.Bytes
				mu.Unlock()
			}(src, dst, info)
		}
	}
	wg.Wait()
	return t
}

func (rt *Router) handleAdminRepair(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.RepairNow(r.Context()))
}
