package encode

// Routing helpers for the sharding tier. phmse-router fronts N phmsed
// instances with a consistent-hash ring keyed on the problem's topology
// hash, so identical topologies always land on the shard whose plan cache
// and posterior store are already hot. The helpers live here, next to the
// hashes and the wire types, so the router never needs to import the
// serving internals: everything it routes on is part of the wire surface.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
)

// KeyHash positions a routing key or virtual-node label on the ring:
// the first 8 bytes of its sha256, big endian. sha256 rather than a
// cheaper hash because routing keys are content hashes that must spread
// uniformly, and ring construction is off the hot path. Everything that
// places keys — the router's ring and any out-of-process oracle of it —
// must agree on this function exactly: a key hashed differently would be
// placed on (or looked for at) the wrong shard.
func KeyHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// SolveRouting extracts the routing decision of a solve request without
// acting on it: the consistent-hash key (the problem's TopologyHash) and
// the warm-start reference, if any. A warm-started submission must route
// to the shard that retains the referenced posterior — the job id's
// instance qualifier, not the ring, names that shard — so the router needs
// both. The body is validated exactly as the daemon would validate it,
// which lets the router reject malformed submissions before forwarding.
func SolveRouting(body []byte) (string, *WarmStartRef, error) {
	p, _, warm, err := ReadSolveRequest(bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	return TopologyHash(p), warm, nil
}

// QualifyJob prefixes a job id with the instance that minted it:
// QualifyJob("s1", "job-000042") = "s1.job-000042". An empty instance
// leaves the id unqualified, the single-daemon form.
func QualifyJob(instance, id string) string {
	if instance == "" {
		return id
	}
	return instance + "." + id
}

// JobInstance returns the instance qualifier of a shard-qualified job id
// ("s1.job-000042" → "s1") and "" for unqualified ids, which predate the
// sharding tier or come from a daemon run without -instance.
func JobInstance(id string) string {
	if i := strings.Index(id, ".job-"); i > 0 {
		return id[:i]
	}
	return ""
}
