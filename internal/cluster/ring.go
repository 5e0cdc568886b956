// Package cluster turns a fleet of h2serve nodes into one logical matvec
// service: a consistent-hash ring assigns each matrix name an owner node,
// the owner's serialized stream (the same atomic fsynced format as the
// registry's spill files) replicates it to read replicas, and a sharded
// scatter/gather protocol splits one product across the holders of a tenant
// — each shard runs the upward+coupling sweeps on its subtree and the
// coordinator merges the partials bitwise-identically to a single-node
// apply. Across hosts, exp-family kernel tenants are bitwise only where
// every holder has the same mat.ExpBody() (math.Exp rounds differently on
// FMA and non-FMA hosts); stored-block streams are unaffected.
//
// Three pieces:
//
//   - Ring: the membership + placement function, shared by router and tests.
//   - Node: the per-node peer endpoints (/cluster/*, /readyz), mounted next
//     to the internal/api surface on every h2serve process.
//   - Router: the client-facing front that proxies /matrices/* to owners,
//     fans reads across replicas with failover, and drives distributed
//     applies.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVnodes is the virtual-node count per member. 160 points per member
// keeps the max/min key-share ratio under ~1.3 for small fleets while the
// ring stays a few KB.
const DefaultVnodes = 160

// Ring is a consistent-hash ring over node addresses. Placement is a pure
// function of the member set and vnode count — every process that agrees on
// membership agrees on ownership, with no coordination. All methods are safe
// for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members []string // sorted, unique
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring with the given virtual-node count (<= 0 uses
// DefaultVnodes) and initial members. Duplicate members are ignored.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// hashKey is FNV-64a with a murmur3-style avalanche finalizer. Bare FNV
// disperses sequential names poorly — the last byte is only multiplied by
// the prime once, so "m-0001".."m-0999" land in a handful of clusters and a
// 3-node ring can leave one node empty. The finalizer mixes every input bit
// into every output bit; the whole function is a fixed pure computation, so
// placement stays identical across processes and platforms.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member (idempotent). Only the new member's vnodes join the
// ring, so only keys whose ring segment they capture move — the minimal
// movement property of consistent hashing.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, member)
	if i < len(r.members) && r.members[i] == member {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hashKey(member + "#" + strconv.Itoa(v)), member})
	}
	sortPoints(r.points)
}

// Remove deletes a member (idempotent). Keys it owned redistribute to the
// ring successors; no key between two surviving members moves.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, member)
	if i == len(r.members) || r.members[i] != member {
		return
	}
	r.members = append(r.members[:i], r.members[i+1:]...)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortPoints orders by hash, breaking (astronomically unlikely) collisions
// by member name so placement stays deterministic regardless of insertion
// order.
func sortPoints(ps []ringPoint) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].hash != ps[b].hash {
			return ps[a].hash < ps[b].hash
		}
		return ps[a].member < ps[b].member
	})
}

// Members returns the current member set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key: the first vnode at or clockwise from
// the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// Owners walks the ring clockwise from the key's hash and returns the first
// n distinct members: the owner first, then the replica set in placement
// order. Fewer than n members returns them all.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// String summarizes the ring for debug endpoints.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring{%d members, %d vnodes each}", len(r.members), r.vnodes)
}
