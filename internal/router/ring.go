package router

import (
	"fmt"
	"sort"

	"phmse/internal/encode"
)

// ring is an immutable consistent-hash ring over shards. Each shard
// contributes vnodes virtual points, placed by hashing its stable name, so
// membership changes move only the keys that belonged to the departed
// shard: ejecting one shard of N remaps ~1/N of the key space and leaves
// every other shard's plan caches and posterior stores untouched. The
// router rebuilds the ring (cheap: a sort over |shards|·vnodes points) on
// every health transition instead of mutating it in place.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	sh   *shard
}

// hashPoint positions a routing key or virtual-node label on the ring.
// It delegates to encode.KeyHash, the wire-level placement contract, so
// any oracle that rebuilds the ring outside the router (tests, the
// benchmark's owner check) places every key exactly where the router
// looks for it.
func hashPoint(s string) uint64 { return encode.KeyHash(s) }

// buildRing places vnodes virtual points per shard. The vnode label hashes
// the shard's stable name, never its membership generation, so a shard
// that leaves and returns reclaims exactly its old arc.
func buildRing(shards []*shard, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	for _, sh := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hashPoint(fmt.Sprintf("%s#%d", sh.name, v)), sh})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// lookup returns the shard owning key: the first point at or clockwise of
// the key's hash. Nil on an empty ring.
func (r *ring) lookup(key string) *shard {
	if len(r.points) == 0 {
		return nil
	}
	h := hashPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].sh
}

// replicas returns up to max distinct shards in ring order starting at the
// key's owner — the failover sequence for the key. The first entry equals
// lookup(key).
func (r *ring) replicas(key string, max int) []*shard {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	h := hashPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[*shard]bool, max)
	out := make([]*shard, 0, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.sh] {
			seen[p.sh] = true
			out = append(out, p.sh)
		}
	}
	return out
}
