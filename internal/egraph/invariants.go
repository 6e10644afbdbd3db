package egraph

import (
	"fmt"
	"os"
	"slices"

	"entangle/internal/expr"
)

// InvariantChecks, when true, makes every Rebuild finish with a full
// CheckInvariants audit and panic on drift. It defaults on when the
// ENTANGLE_CHECK_INVARIANTS environment variable is non-empty — the
// race-gated test runs set it (scripts/verify.sh) so congruence drift
// surfaces at the rebuild that caused it, not as a mysterious wrong
// extraction later. The audit is O(graph) per rebuild; never enable in
// production.
var InvariantChecks = os.Getenv("ENTANGLE_CHECK_INVARIANTS") != ""

// CheckInvariants audits the e-graph's structural invariants and
// returns the first violation found, or nil. The invariants, which
// Rebuild is supposed to (re)establish:
//
//  1. Class records are canonical: every occupied class-table slot is
//     its own union-find representative and matches the record's id,
//     the table has one slot per union-find slot, and the live count
//     is the number of occupied slots.
//  2. Node chains: every class's chain runs from first to last over
//     count arena slots, and no arena slot is on two chains (or twice
//     on one). The incrementally maintained live-node count equals
//     the chained total.
//  3. No intra-class duplicates: no two nodes of one class
//     canonicalize to the same identity. An unordered (sum) node whose
//     kids are canonical lists them sorted: its one spelling.
//  4. Memo ↔ arena agreement, both directions: every live memo entry
//     names an arena slot, sits under the hash of that node's head and
//     kids, and — when those kids are canonical — resolves to the
//     class whose chain holds such a node; every chained node's
//     canonical form is in the memo pointing back at its class.
//     (Congruence: two classes holding the same canonical node would
//     collide on the memo entry and fail this.)
//  5. Parent registration: every non-leaf node is recorded in each of
//     its kids' parent lists — by an entry whose arena node
//     canonicalizes to it — with the owning class, and each kid class
//     has the consumer bit of the node's operator set (the bits may
//     say more than the live consumers, never less). The arena has
//     one node per union-find slot and every parent entry indexes it.
func (g *EGraph) CheckInvariants() error {
	// 1. Canonical class records.
	if len(g.classes) != len(g.parent) {
		return fmt.Errorf("class table has %d slots, the union-find %d", len(g.classes), len(g.parent))
	}
	live := 0
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		live++
		id := ClassID(i)
		if g.Find(id) != id {
			return fmt.Errorf("class %d is in the class table but not canonical (Find = %d)", id, g.Find(id))
		}
		if cl.id != id {
			return fmt.Errorf("class %d record carries id %d", id, cl.id)
		}
	}
	if live != g.live {
		return fmt.Errorf("live class count %d != occupied class slots %d", g.live, live)
	}
	if len(g.arena) != len(g.parent) || len(g.next) != len(g.arena) {
		return fmt.Errorf("node arena holds %d nodes chained by %d links, the union-find %d slots", len(g.arena), len(g.next), len(g.parent))
	}

	// 4 (memo → arena direction), before anything probes the memo: an
	// entry compares through the node it names.
	var memoErr error
	g.memo.each(func(e memoEntry) bool {
		if e.node < 0 || int(e.node) >= len(g.arena) {
			memoErr = fmt.Errorf("memo entry (head %d) names node %d, outside the arena's %d slots", e.head, e.node, len(g.arena))
		} else if n := &g.arena[e.node]; n.head != e.head || memoHash(e.head, n.Kids) != e.hash {
			memoErr = fmt.Errorf("memo entry (head %d, hash %x) names node %s, whose head is %d and hash %x", e.head, e.hash, n.key(), n.head, memoHash(n.head, n.Kids))
		}
		return memoErr == nil
	})
	if memoErr != nil {
		return memoErr
	}

	total := 0
	owner := make([]ClassID, len(g.arena)) // arena slot → the class whose chain holds it, +1
	var kept []int32                       // per class: the nodes seen
	var kids []ClassID                     // the canonical kids of the node in hand
	seen := firstByHash{byHash: map[uint64]int32{}}
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		id := ClassID(i)
		for _, p := range cl.parents {
			if p.node < 0 || int(p.node) >= len(g.arena) || p.class < 0 || int(p.class) >= len(g.parent) {
				return fmt.Errorf("class %d has parent entry (node %d, class %d) outside the arena's %d nodes or the union-find's %d slots", id, p.node, p.class, len(g.arena), len(g.parent))
			}
		}

		// 2. The chain.
		chained, last := 0, int32(-1)
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			if int(ni) >= len(g.arena) {
				return fmt.Errorf("class %d chains node %d, outside the arena's %d slots", id, ni, len(g.arena))
			}
			if owner[ni] != 0 {
				return fmt.Errorf("arena slot %d is chained by class %d and by class %d", ni, owner[ni]-1, id)
			}
			owner[ni] = id + 1
			chained, last = chained+1, ni
		}
		if chained == 0 || chained != int(cl.count) || last != cl.last {
			return fmt.Errorf("class %d chains %d nodes ending at %d, but records %d ending at %d", id, chained, last, cl.count, cl.last)
		}
		total += chained

		// 3. Intra-class dedup; 4 and 5 per node.
		kept = kept[:0]
		seen.start(int(cl.count))
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			cn := g.arena[ni]
			if expr.Unordered(cn.Op) && g.canonical(cn.Kids) && !slices.IsSorted(cn.Kids) {
				return fmt.Errorf("class %d holds %s node %s whose canonical kids are not sorted", id, cn.Op, cn.key())
			}
			kids = g.appendCanon(kids[:0], cn.Kids, expr.Unordered(cn.Op)) // not in canonBuf, which canonEquiv uses
			cn.Kids = kids
			h := cn.head
			if h == 0 {
				return fmt.Errorf("class %d node %s (arena slot %d) has no interned head", id, cn.key(), ni)
			}
			hash := memoHash(h, cn.Kids)
			if _, ok := seen.find(hash); ok && slices.ContainsFunc(kept, func(k int32) bool { return g.canonEquiv(&g.arena[k], &g.arena[ni]) }) {
				return fmt.Errorf("class %d holds duplicate node %s", id, cn.key())
			}
			seen.add(hash, int32(len(kept)))
			kept = append(kept, ni)

			// 4 (node → memo direction).
			mc, ok := g.memo.get(g.arena, hash, h, cn.Kids)
			if !ok {
				return fmt.Errorf("class %d node %s missing from memo", id, cn.key())
			}
			if g.Find(mc) != id {
				return fmt.Errorf("class %d node %s maps to class %d in memo", id, cn.key(), g.Find(mc))
			}

			// 5. Parent registration and consumer bits.
			for _, kid := range cn.Kids {
				kc := g.classes[g.Find(kid)]
				if kc == nil {
					return fmt.Errorf("class %d node %s has kid %d with no class record", id, cn.key(), kid)
				}
				found := false
				for _, p := range kc.parents {
					if g.Find(ClassID(p.class)) == id && g.canonEquiv(&g.arena[p.node], &cn) {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("class %d node %s not registered in parents of kid class %d", id, cn.key(), g.Find(kid))
				}
				if kc.consumers&consumerBit(g.opOfHead(h)) == 0 {
					return fmt.Errorf("class %d is consumed by %s node %s of class %d, but its consumer bit is clear", g.Find(kid), cn.Op, cn.key(), id)
				}
			}
		}
	}

	// 2a. Live-node bookkeeping.
	if g.nodeCount != total {
		return fmt.Errorf("nodeCount %d != chained-node total %d", g.nodeCount, total)
	}

	// 4 (memo → class direction).
	g.memo.each(func(e memoEntry) bool {
		n := &g.arena[e.node]
		cl := g.classes[g.Find(ClassID(e.class))]
		if cl == nil {
			memoErr = fmt.Errorf("memo entry (head %d) points at dead class %d", e.head, e.class)
			return false
		}
		// Stale memo entries whose kids are no longer canonical are
		// tolerated as long as the canonical form also resolves (the
		// node→memo direction above checked it); a fully canonical
		// entry must be present in its class.
		if !g.canonical(n.Kids) {
			return true
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			if g.canonEquiv(&g.arena[ni], n) {
				return true
			}
		}
		memoErr = fmt.Errorf("memo entry %s not present in class %d", n.key(), g.Find(ClassID(e.class)))
		return false
	})
	return memoErr
}
