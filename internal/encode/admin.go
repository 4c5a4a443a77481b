package encode

// Wire types for the phmse-router /admin/v1 control plane and the phmsed
// posterior-transfer endpoints. They live in encode — not in the router —
// because both daemons and the typed client speak them: the router serves
// the admin documents, phmsed serves the posterior index, and
// internal/client decodes both without importing either daemon package.

// PosteriorInfo summarizes one retained posterior in a shard's store,
// served by GET /v1/posteriors. It carries the hashes the migration pass
// needs to re-place the posterior on a changed ring without downloading
// the (much larger) full document first.
type PosteriorInfo struct {
	// Job is the shard-qualified job id the posterior was retained under.
	Job     string `json:"job"`
	Problem string `json:"problem,omitempty"`
	// TopologyHash is the routing key: the ring position of this posterior
	// is KeyHash(TopologyHash).
	TopologyHash string `json:"topology_hash,omitempty"`
	// StructureHash is the warm-start compatibility key (atoms + grouping).
	StructureHash string `json:"structure_hash,omitempty"`
	Atoms         int    `json:"atoms"`
	// Bytes is the in-store footprint used against the posterior budget.
	Bytes int64 `json:"bytes"`
}

// PosteriorIndex is the document served by GET /v1/posteriors?prefix=.
type PosteriorIndex struct {
	Posteriors []PosteriorInfo `json:"posteriors"`
	// TotalBytes/CapacityBytes describe the whole store (not just the
	// filtered listing), so a migration source can be checked for fit
	// before streaming.
	TotalBytes    int64 `json:"total_bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// ShardInfo is one router-side shard membership entry as served by the
// admin API and embedded in admin operation reports.
type ShardInfo struct {
	// Base is the shard's base URL — the stable name consistent-hash arcs
	// are derived from.
	Base string `json:"base"`
	// Instance is the daemon's learned -instance id ("" until the first
	// successful probe or relay).
	Instance string `json:"instance,omitempty"`
	Alive    bool   `json:"alive"`
	Ready    bool   `json:"ready"`
	// InRing reports whether the shard currently owns ring arcs (ready and
	// not fenced by a drain).
	InRing bool `json:"in_ring"`
	// DrainState is "" for an active member, "draining" while a drain is
	// fencing and migrating, "drained" once a POST .../drain completed and
	// the shard is held out of the ring awaiting removal or reactivation.
	DrainState string `json:"drain_state,omitempty"`
	// QueueDepth and Running mirror the shard's last /readyz probe — the
	// load signal recorded per probe for ring-weighting groundwork.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
}

// ShardList is the GET /admin/v1/shards topology view.
type ShardList struct {
	Shards []ShardInfo `json:"shards"`
	// RingShards is how many of them currently own arcs.
	RingShards int `json:"ring_shards"`
}

// AddShardRequest is the POST /admin/v1/shards body.
type AddShardRequest struct {
	// Base is the new shard's base URL, e.g. "http://10.0.0.7:8080".
	Base string `json:"base"`
}

// MigrationReport summarizes the convergence pass one membership change
// ran.
type MigrationReport struct {
	// Migrated counts posteriors streamed to their new owner and deleted
	// from the source after the destination acknowledged.
	Migrated int `json:"migrated"`
	// Failed counts posteriors left intact on the source because export,
	// import, or the source index itself failed — no ack, no delete.
	Failed int `json:"failed"`
	// Skipped counts posteriors that could not move: no routing key, no
	// owner (an empty ring), or an owner fenced by a drain or found dead.
	// Posteriors already at their owner are not counted.
	Skipped int   `json:"skipped"`
	Bytes   int64 `json:"bytes"`
}

// RepairReport summarizes one anti-entropy repair sweep: the router
// indexed every live shard's posteriors, diffed holdings against current
// ring ownership, and re-drove the misplaced ones through the transfer
// protocol. Served by POST /admin/v1/repair and tallied in /metrics.
type RepairReport struct {
	// Scanned counts posteriors indexed across all live shards this sweep.
	Scanned int `json:"scanned"`
	// Repaired counts posteriors re-driven to their ring owner (destination
	// acknowledged, source deleted).
	Repaired int `json:"repaired"`
	// Failed counts posteriors (or whole shard indexes) the sweep could not
	// move; they stay where they are for the next sweep.
	Failed int `json:"failed"`
	// Skipped counts posteriors with no routing key, no live destination,
	// or a destination fenced by a drain.
	Skipped int   `json:"skipped"`
	Bytes   int64 `json:"bytes"`
}

// AuditEntry is one admin-plane audit record: a membership change or an
// effective repair sweep. With the router's -audit-log set, entries also
// append to a JSONL file; GET /admin/v1/audit serves the in-memory tail.
type AuditEntry struct {
	// Time is the RFC3339Nano UTC stamp the router assigned.
	Time string `json:"time"`
	// Op is "add", "reactivate", "remove", "drain", "repair", "apply"
	// (a membership document adopted from a gossip peer took effect) or
	// "conflict" (an equal-epoch peer document lost the deterministic
	// tie-break and was rejected).
	Op string `json:"op"`
	// Origin is the replica id whose mutation produced this entry: the
	// local replica for operations applied here, the originating peer
	// for gossip-applied documents.
	Origin string `json:"origin,omitempty"`
	// Shard is the affected member's base URL ("" for repair sweeps).
	Shard string `json:"shard,omitempty"`
	// Mode is the removal mode ("drain" or "immediate") when Op is
	// "remove".
	Mode string `json:"mode,omitempty"`
	// Outcome is "ok", "conflict" (add of an active member), "partial"
	// (some posteriors failed to move), or "timed_out" (in-flight work
	// remained at the drain deadline).
	Outcome string `json:"outcome"`
	// InflightAtEnd is the shard's last observed queued+running count when
	// a drain ended (-1: the shard stopped answering).
	InflightAtEnd int `json:"inflight_at_end,omitempty"`
	// Migrated and Failed count the posteriors the operation moved and
	// left behind (for repairs: repaired and failed).
	Migrated int `json:"migrated,omitempty"`
	Failed   int `json:"failed,omitempty"`
	// Detail summarizes a gossip apply: the members added (+base),
	// removed (-base) and re-fenced (~base) by the adopted document.
	Detail string `json:"detail,omitempty"`
}

// AuditLog is the GET /admin/v1/audit document, oldest entry first.
type AuditLog struct {
	Entries []AuditEntry `json:"entries"`
}

// AddShardResponse reports a POST /admin/v1/shards outcome.
type AddShardResponse struct {
	Shard ShardInfo `json:"shard"`
	// Reactivated is true when the base named an existing drained member
	// that was returned to service instead of a brand-new shard.
	Reactivated bool `json:"reactivated,omitempty"`
	// Migration is the rebalancing pass run after the ring change, moving
	// remapped posteriors onto the new member.
	Migration MigrationReport `json:"migration"`
}

// DrainReport reports a DELETE /admin/v1/shards/{name} or
// POST /admin/v1/shards/{name}/drain outcome.
type DrainReport struct {
	Shard ShardInfo `json:"shard"`
	// Mode is "drain" or "immediate".
	Mode string `json:"mode"`
	// Removed is true when the shard was ejected from membership (DELETE);
	// false for a POST drain, which fences and migrates but keeps the
	// member registered in state "drained".
	Removed bool `json:"removed"`
	// TimedOut is true when in-flight work remained at the drain deadline;
	// InflightAtEnd is the last observed queued+running count (-1 when the
	// shard stopped answering probes).
	TimedOut      bool  `json:"timed_out,omitempty"`
	InflightAtEnd int   `json:"inflight_at_end,omitempty"`
	WaitedMillis  int64 `json:"waited_millis"`
	// Migration is the posterior evacuation pass; Failed+Skipped is the
	// unmigrated count left stranded on the source.
	Migration MigrationReport `json:"migration"`
}
