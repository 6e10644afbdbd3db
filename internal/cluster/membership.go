// Package cluster scales the entangled daemon into a sharded
// multi-node checker fleet. The design center is robustness: every
// remote interaction is one attempt under one timeout, and every
// failure degrades to a local cold check — it can cost wall clock but
// never a wrong or lost verdict. A peer exchange only ever saves work,
// so a failed one is not retried: the local path is the fallback.
//
// Sharding is content-addressed: each verdict fingerprint has exactly
// one owner, chosen by rendezvous (highest-random-weight) hashing over
// a static member list. Ownership is a pure function of (member IDs,
// key) — no coordinator, no handoff protocol, and every node computes
// the same owner from the same list (the internal/mc ownership model
// proves exactly-one-owner exhaustively, and proves how it breaks if a
// node recomputes ownership over its own liveness view instead).
//
// A node checking an operator consults its cluster Cache like a plain
// verdict cache:
//
//   - Get: local shard first (self-owned keys and lazily warmed
//     copies), then a fetch from the key's owner. An unreachable owner,
//     a timeout, or a corrupt reply all degrade to a miss — the checker
//     falls back to a local cold check, exactly as if the cache were
//     cold. Fetched entries are validated with vcache.DecodeEntry (the
//     same "decode error is a miss" gate as the disk store) and stored
//     locally, so a re-fetched key is warm next time.
//   - Put: stored locally always (a node never loses its own work),
//     then forwarded to the key's owner so the fleet converges on one
//     authoritative shard per fingerprint. Forwarding failures are
//     counted, never fatal; a re-joined owner is lazily re-warmed by
//     the next forwards and fetches that reach it.
//
// A per-peer circuit breaker stops calling dead nodes: after
// consecutive failed calls the peer is skipped outright (degrading
// straight to local checks, without waiting out a timeout) until a
// cooldown expires, then a single probe decides whether to close the
// breaker again.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"entangle/internal/det"
	"entangle/internal/fingerprint"
)

// Member is one fleet node: a stable ID (the rendezvous-hash identity)
// and the base URL its peers reach it at.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Membership is the fleet's static member list plus this node's
// identity. The list is sorted by ID at construction so ownership and
// iteration order are independent of flag order.
type Membership struct {
	self    Member
	members []Member
}

// NewMembership builds a membership from the static member list.
// members must include self (by ID) and IDs must be unique.
func NewMembership(selfID string, members []Member) (*Membership, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	sorted := append([]Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var self *Member
	for i, m := range sorted {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member %d has an empty ID", i)
		}
		if i > 0 && sorted[i-1].ID == m.ID {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		if m.ID == selfID {
			self = &sorted[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: self ID %q is not in the member list", selfID)
	}
	return &Membership{self: *self, members: sorted}, nil
}

// ParsePeers parses the -peers flag format: a comma-separated list of
// id=url entries, e.g. "a=http://10.0.0.1:8372,b=http://10.0.0.2:8372".
func ParsePeers(spec string) ([]Member, error) {
	var members []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=url)", part)
		}
		members = append(members, Member{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", spec)
	}
	return members, nil
}

// Self returns this node's member record.
func (ms *Membership) Self() Member { return ms.self }

// Members returns the full member list, sorted by ID. Callers must not
// mutate it.
func (ms *Membership) Members() []Member { return ms.members }

// Owner returns the key's owning member under rendezvous hashing over
// the full static list. It MUST be called with the same list on every
// node — computing ownership over a node-local liveness view is the
// split-brain bug the mc known-bug-cluster model demonstrates.
func (ms *Membership) Owner(key fingerprint.Hash) Member { return Owner(ms.members, key) }

// Owner is the shipped ownership function: the member with the highest
// rendezvous score for the key, ties broken by smaller ID. Pure — a
// deterministic function of (member IDs, key) only — which is what
// makes it coordinator-free: every node evaluates it independently and
// agrees. The internal/mc ownership model drives this exact function.
func Owner(members []Member, key fingerprint.Hash) Member {
	if len(members) == 0 {
		return Member{}
	}
	best := members[0]
	bestScore := rendezvousScore(members[0].ID, key)
	for _, m := range members[1:] {
		s := rendezvousScore(m.ID, key)
		if s > bestScore || (s == bestScore && m.ID < best.ID) {
			best, bestScore = m, s
		}
	}
	return best
}

// rendezvousScore hashes (member ID, key) to a 64-bit weight: FNV-1a
// over the ID then the key bytes, finished with a splitmix64 avalanche
// — the same hash family as internal/faultinject's seeded decisions.
func rendezvousScore(id string, key fingerprint.Hash) uint64 {
	return det.Mix(det.Bytes(det.String(det.FNVOffset, id), key[:]))
}
