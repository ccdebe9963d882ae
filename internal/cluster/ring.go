package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Consistent-hash ring with virtual nodes. Every backend is hashed onto the
// ring at ringVNodes points; a shard (a run's content address) is owned by the
// first backend clockwise of its own hash. Virtual nodes smooth the
// partition: with ~64 points per backend the load imbalance across backends
// stays within a few percent, and adding or removing one backend moves only
// ~1/N of the shards (the classic consistent-hashing property — a restarted
// backend re-owns exactly the shards it owned before).
//
// The ring is immutable after construction: liveness is NOT baked into the
// ring. sequence(key) yields every backend in clockwise walk order, and the
// dispatcher takes the first usable one — so a dead backend's shards fall
// through to the next backend on the ring (re-dispatch) and return home
// automatically when it recovers, with no ring rebuild and no coordination.

// ring maps shard keys to an ordered backend preference list.
type ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct backends, construction order
}

type ringPoint struct {
	hash uint64
	name string
}

// hashKey is the ring's hash: the first 8 bytes of SHA-256, the same family
// as the run content addresses themselves, so placement is uniform even for
// adversarially similar keys.
func hashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring with vnodes virtual points per backend.
func newRing(names []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &ring{names: names}
	r.points = make([]ringPoint, 0, len(names)*vnodes)
	for _, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(name + "#" + strconv.Itoa(v)),
				name: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.name < b.name // total order even on (astronomically unlikely) hash ties
	})
	return r
}

// sequence returns every distinct backend in clockwise walk order from key's
// position — the shard's full preference list. sequence(key)[0] owns key:
// the first point clockwise of the key's hash. The dispatcher walks the
// tail when earlier entries are dead or broken.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.names))
	out := make([]string, 0, len(r.names))
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
