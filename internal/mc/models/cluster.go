package models

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"entangle/internal/cluster"
	"entangle/internal/egraph"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/mc"
	"entangle/internal/vcache"
)

// ClusterConfig bounds one shard-ownership model.
type ClusterConfig struct {
	Name string
	// Nodes is the fleet size (at least 3: each key gets a distinct
	// producer and reader besides its owner).
	Nodes int
	// Keys is the number of distinct fingerprints in play.
	Keys int
	// MaxCrashes bounds how many crash events the adversary may inject
	// (restarts are free — they are only enabled after a crash).
	MaxCrashes int
	// MaxDamage bounds how many in-flight messages the adversary may
	// damage; each pick any faultinject.CacheFault mode.
	MaxDamage int
	// Buggy computes shard ownership from each node's LOCAL view of
	// which peers are alive instead of the static member list — the
	// split-brain ownership race the rendezvous design exists to
	// exclude. The one-owner invariant must catch it.
	Buggy bool
}

// ClusterM models the fleet's shard-ownership and verdict-forwarding
// protocol: for each key, a producer node commits the verdict to its
// own shard and queues it for its forwarder, which sends everything
// queued for one owner as one batch; a reader node later fetches, in
// one batch per owner, whatever it needs; and an adversary
// crashes/restarts nodes — a crash loses the forwards still queued,
// never the verdicts behind them — and damages frames in flight, each
// on its own. Four design decisions make it more than a toy:
//
//   - Ownership decisions run the SHIPPED cluster.Owner over the static
//     member list (or, in the Buggy variant, over each node's local
//     liveness view — which the one-owner invariant then catches).
//   - Messages carry REAL bytes: vcache.EncodeEntry output, damaged by
//     faultinject.Damage, gated on delivery by vcache.DecodeEntry —
//     the same codec path the production transport uses, so "a
//     forwarded verdict is never stale" is checked against shipped
//     code.
//   - A batch is delivered frame by frame through that gate: a damaged
//     frame is refused alone, its neighbours in the same batch commit.
//   - Crash preserves the disk and discards everything else — the
//     forwarder's queue included — the durability contract of a real
//     SIGKILL, so "no committed verdict lost across crash/restart" is
//     checked at every reachable state, the ones between a local
//     commit and the forwarder's send among them.
type ClusterM struct {
	cfg     ClusterConfig
	members []cluster.Member
	keys    []fingerprint.Hash
	modes   []faultinject.CacheFault
	// clean[k] is key k's canonical entry bytes; damaged[k][m] those
	// bytes under damage mode m.
	clean   [][]byte
	damaged [][][]byte
	// producer/reader/staticOwner assign each key its cast: producer
	// computes and forwards the verdict, reader fetches it later,
	// staticOwner is cluster.Owner over the full member list.
	producer    []int
	reader      []int
	staticOwner []int
}

// NewCluster precomputes members, keys, canonical bytes, and each key's
// cast.
func NewCluster(cfg ClusterConfig) (*ClusterM, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("models: cluster needs at least 3 nodes (owner, producer, reader)")
	}
	if cfg.Keys <= 0 {
		return nil, fmt.Errorf("models: cluster needs at least one key")
	}
	m := &ClusterM{cfg: cfg, modes: faultinject.CacheFaults()}
	for i := 0; i < cfg.Nodes; i++ {
		m.members = append(m.members, cluster.Member{
			ID:  "n" + strconv.Itoa(i),
			URL: "mc://n" + strconv.Itoa(i),
		})
	}
	for k := 0; k < cfg.Keys; k++ {
		key := fingerprint.Hash(sha256.Sum256([]byte(fmt.Sprintf("mc-cluster-key-%d", k))))
		m.keys = append(m.keys, key)
		e := vcache.Refined(key, k, egraph.Stats{}, [][]string{{fmt.Sprintf("c%d", k)}})
		data, err := vcache.EncodeEntry(key, e)
		if err != nil {
			return nil, err
		}
		var dam [][]byte
		for _, mode := range m.modes {
			dam = append(dam, faultinject.Damage(data, mode))
		}
		m.clean = append(m.clean, data)
		m.damaged = append(m.damaged, dam)

		owner := m.indexOf(cluster.Owner(m.members, key))
		producer, reader := -1, -1
		for i := range m.members {
			if i == owner {
				continue
			}
			if producer < 0 {
				producer = i
			} else if reader < 0 {
				reader = i
			}
		}
		m.staticOwner = append(m.staticOwner, owner)
		m.producer = append(m.producer, producer)
		m.reader = append(m.reader, reader)
	}
	return m, nil
}

func (m *ClusterM) indexOf(member cluster.Member) int {
	for i, mm := range m.members {
		if mm.ID == member.ID {
			return i
		}
	}
	panic("models: owner not in member list")
}

// Frame phases. A frame is one key's slot in an offer batch (producer
// → owner) or in a fetch reply batch (owner → reader).
const (
	msgIdle    int8 = iota // not sent yet
	msgQueued              // offers only: committed locally, waiting for the forwarder
	msgClean               // in flight, intact
	msgDamaged             // in flight, damaged (mode in the mode slot)
	msgDone                // delivered, rejected, or lost
)

// clusterState is one fleet state.
type clusterState struct {
	m  *ClusterM
	up []bool
	// disk[n*Keys+k]: node n's shard durably holds key k's verdict.
	disk []bool
	// produced[k]: key k's producer computed and locally committed.
	produced []bool
	// Offer and fetch frame state, per key. Frames that went on the
	// wire together share a batch number (the lowest key of their
	// call, plus one; 0 = not on the wire) and are delivered together.
	offerPhase, offerMode []int8
	offerDst              []int8 // owner the producer addressed
	offerBatch            []int8
	offerLanded           []bool // delivery committed on the dst
	fetchPhase, fetchMode []int8
	fetchSrc              []int8 // owner the reader asked
	fetchBatch            []int8
	fetchLanded           []bool
	crashes, damages      int8
	// views[n*Nodes+p] (Buggy only): node n believes peer p is up.
	views []bool
}

func (s *clusterState) clone() *clusterState {
	n := *s
	n.up = append([]bool(nil), s.up...)
	n.disk = append([]bool(nil), s.disk...)
	n.produced = append([]bool(nil), s.produced...)
	n.offerPhase = append([]int8(nil), s.offerPhase...)
	n.offerMode = append([]int8(nil), s.offerMode...)
	n.offerDst = append([]int8(nil), s.offerDst...)
	n.offerBatch = append([]int8(nil), s.offerBatch...)
	n.offerLanded = append([]bool(nil), s.offerLanded...)
	n.fetchPhase = append([]int8(nil), s.fetchPhase...)
	n.fetchMode = append([]int8(nil), s.fetchMode...)
	n.fetchSrc = append([]int8(nil), s.fetchSrc...)
	n.fetchBatch = append([]int8(nil), s.fetchBatch...)
	n.fetchLanded = append([]bool(nil), s.fetchLanded...)
	n.views = append([]bool(nil), s.views...)
	return &n
}

// ownerOf is the ownership decision node n makes for key k: the shipped
// rendezvous function over the static member list — or, in the Buggy
// variant, over the members node n currently believes are alive.
func (s *clusterState) ownerOf(n, k int) int {
	if !s.m.cfg.Buggy {
		return s.m.staticOwner[k]
	}
	var live []cluster.Member
	for p, mm := range s.m.members {
		if s.views[n*s.m.cfg.Nodes+p] {
			live = append(live, mm)
		}
	}
	return s.m.indexOf(cluster.Owner(live, s.m.keys[k]))
}

func appendBits(b []byte, bits []bool) []byte {
	for _, v := range bits {
		if v {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return b
}

func (s *clusterState) Key() string {
	b := make([]byte, 0, 64)
	b = appendBits(b, s.up)
	b = append(b, '|')
	b = appendBits(b, s.disk)
	b = append(b, '|')
	b = appendBits(b, s.produced)
	for k := range s.offerPhase {
		b = append(b, '|', byte('0'+s.offerPhase[k]), byte('0'+s.offerMode[k]),
			byte('0'+s.offerDst[k]), byte('0'+s.offerBatch[k]),
			byte('0'+s.fetchPhase[k]), byte('0'+s.fetchMode[k]),
			byte('0'+s.fetchSrc[k]), byte('0'+s.fetchBatch[k]))
	}
	b = append(b, '|')
	b = appendBits(b, s.offerLanded)
	b = appendBits(b, s.fetchLanded)
	b = append(b, byte('0'+s.crashes), byte('0'+s.damages), '|')
	return string(appendBits(b, s.views))
}

func (s *clusterState) String() string {
	var b strings.Builder
	b.WriteString("up=[")
	for n, u := range s.up {
		if n > 0 {
			b.WriteByte(' ')
		}
		if u {
			fmt.Fprintf(&b, "n%d", n)
		} else {
			fmt.Fprintf(&b, "·%d", n)
		}
	}
	b.WriteString("] disk={")
	first := true
	for n := 0; n < s.m.cfg.Nodes; n++ {
		for k := 0; k < s.m.cfg.Keys; k++ {
			if s.disk[n*s.m.cfg.Keys+k] {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "n%d:k%d", n, k)
			}
		}
	}
	b.WriteString("} msgs=[")
	phase := func(p, mode, batch int8) string {
		switch p {
		case msgIdle:
			return "·"
		case msgQueued:
			return "queued"
		case msgClean:
			return fmt.Sprintf("clean#%d", batch)
		case msgDamaged:
			return fmt.Sprintf("%s#%d", s.m.modes[mode], batch)
		}
		return "done"
	}
	for k := range s.offerPhase {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "k%d:offer=%s,fetch=%s", k,
			phase(s.offerPhase[k], s.offerMode[k], s.offerBatch[k]),
			phase(s.fetchPhase[k], s.fetchMode[k], s.fetchBatch[k]))
	}
	fmt.Fprintf(&b, "] crashes=%d damages=%d", s.crashes, s.damages)
	if s.m.cfg.Buggy {
		b.WriteString(" views=")
		for n := 0; n < s.m.cfg.Nodes; n++ {
			if n > 0 {
				b.WriteByte(',')
			}
			for p := 0; p < s.m.cfg.Nodes; p++ {
				if s.views[n*s.m.cfg.Nodes+p] {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
	}
	return b.String()
}

func (m *ClusterM) Name() string { return m.cfg.Name }

func (m *ClusterM) Init() []mc.State {
	s := &clusterState{
		m:           m,
		up:          make([]bool, m.cfg.Nodes),
		disk:        make([]bool, m.cfg.Nodes*m.cfg.Keys),
		produced:    make([]bool, m.cfg.Keys),
		offerPhase:  make([]int8, m.cfg.Keys),
		offerMode:   make([]int8, m.cfg.Keys),
		offerDst:    make([]int8, m.cfg.Keys),
		offerBatch:  make([]int8, m.cfg.Keys),
		offerLanded: make([]bool, m.cfg.Keys),
		fetchPhase:  make([]int8, m.cfg.Keys),
		fetchMode:   make([]int8, m.cfg.Keys),
		fetchSrc:    make([]int8, m.cfg.Keys),
		fetchBatch:  make([]int8, m.cfg.Keys),
		fetchLanded: make([]bool, m.cfg.Keys),
	}
	for n := range s.up {
		s.up[n] = true
	}
	if m.cfg.Buggy {
		s.views = make([]bool, m.cfg.Nodes*m.cfg.Nodes)
		for i := range s.views {
			s.views[i] = true
		}
	}
	return []mc.State{s}
}

// inFlight reports whether a frame is on the wire.
func inFlight(phase int8) bool { return phase == msgClean || phase == msgDamaged }

// frameBytes is what a frame carries: key k's canonical bytes, or those
// bytes under the damage mode the adversary picked.
func (m *ClusterM) frameBytes(k int, phase, mode int8) []byte {
	if phase == msgDamaged {
		return m.damaged[k][mode]
	}
	return m.clean[k]
}

func (m *ClusterM) Actions(st mc.State) []mc.Action {
	s := st.(*clusterState)
	var acts []mc.Action

	for k := 0; k < m.cfg.Keys; k++ {
		// Produce: the producer computes the verdict, commits it to its
		// own shard (write-through, before anything is acknowledged),
		// and queues the forward for whoever IT thinks owns the key.
		if !s.produced[k] && s.up[m.producer[k]] {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("k%d/produce", k), Next: func() mc.State {
				n := s.clone()
				n.produced[k] = true
				n.disk[m.producer[k]*m.cfg.Keys+k] = true
				dst := s.ownerOf(m.producer[k], k)
				if dst == m.producer[k] {
					n.offerPhase[k] = msgDone // self-owned: nothing to forward
				} else {
					n.offerPhase[k], n.offerDst[k] = msgQueued, int8(dst)
				}
				return n
			}})
		}
		// The channel adversary damages one frame of a batch in flight;
		// the frames around it stay as they are.
		if s.offerPhase[k] == msgClean && int(s.damages) < m.cfg.MaxDamage {
			for mi, mode := range m.modes {
				acts = append(acts, mc.Action{Name: fmt.Sprintf("k%d/offer-damage/%s", k, mode), Next: func() mc.State {
					n := s.clone()
					n.offerPhase[k], n.offerMode[k] = msgDamaged, int8(mi)
					n.damages++
					return n
				}})
			}
		}
		if s.fetchPhase[k] == msgClean && int(s.damages) < m.cfg.MaxDamage {
			for mi, mode := range m.modes {
				acts = append(acts, mc.Action{Name: fmt.Sprintf("k%d/fetch-damage/%s", k, mode), Next: func() mc.State {
					n := s.clone()
					n.fetchPhase[k], n.fetchMode[k] = msgDamaged, int8(mi)
					n.damages++
					return n
				}})
			}
		}
	}

	for nd := 0; nd < m.cfg.Nodes; nd++ {
		if !s.up[nd] {
			continue
		}
		for peer := 0; peer < m.cfg.Nodes; peer++ {
			// Forwarder send: everything node nd has queued for one
			// owner goes on the wire as one batch.
			var queued []int
			for k := 0; k < m.cfg.Keys; k++ {
				if s.offerPhase[k] == msgQueued && m.producer[k] == nd && int(s.offerDst[k]) == peer {
					queued = append(queued, k)
				}
			}
			if len(queued) > 0 {
				acts = append(acts, mc.Action{Name: fmt.Sprintf("n%d/send/n%d", nd, peer), Next: func() mc.State {
					n := s.clone()
					for _, k := range queued {
						n.offerPhase[k], n.offerBatch[k] = msgClean, int8(queued[0]+1)
					}
					return n
				}})
			}
			// Fetch: reader nd asks whoever IT thinks owns them for
			// every key it wants and does not have, in one batch. A
			// down owner fails the call as a whole (the reader cold
			// checks); a reachable one answers key by key — a miss is
			// authoritative, a hit puts that key's frame in the reply.
			var wanted []int
			for k := 0; k < m.cfg.Keys; k++ {
				if s.produced[k] && s.fetchPhase[k] == msgIdle && m.reader[k] == nd && s.ownerOf(nd, k) == peer {
					wanted = append(wanted, k)
				}
			}
			if len(wanted) > 0 {
				acts = append(acts, mc.Action{Name: fmt.Sprintf("n%d/fetch/n%d", nd, peer), Next: func() mc.State {
					n := s.clone()
					for _, k := range wanted {
						if peer == nd || !s.up[peer] || !s.disk[peer*m.cfg.Keys+k] {
							n.fetchPhase[k] = msgDone
							continue
						}
						n.fetchPhase[k], n.fetchSrc[k], n.fetchBatch[k] = msgClean, int8(peer), int8(wanted[0]+1)
					}
					return n
				}})
			}
		}
	}

	// Deliver a batch. An offer batch reaching a down destination is
	// lost whole (the sender degrades — its local copy is the floor);
	// an up destination runs the production decode gate on every frame
	// and commits exactly the clean ones. A fetch reply is gated the
	// same way by the reader: a corrupt frame is that key's miss.
	for b := int8(1); int(b) <= m.cfg.Keys; b++ {
		var offered, fetched []int
		for k := 0; k < m.cfg.Keys; k++ {
			if s.offerBatch[k] == b && inFlight(s.offerPhase[k]) {
				offered = append(offered, k)
			}
			if s.fetchBatch[k] == b && inFlight(s.fetchPhase[k]) {
				fetched = append(fetched, k)
			}
		}
		if len(offered) > 0 {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("offer-deliver/%d", b), Next: func() mc.State {
				n := s.clone()
				for _, k := range offered {
					n.offerPhase[k] = msgDone
					dst := int(s.offerDst[k])
					if !s.up[dst] {
						continue
					}
					if _, err := vcache.DecodeEntry(m.keys[k], m.frameBytes(k, s.offerPhase[k], s.offerMode[k])); err != nil {
						continue // refused at the gate, never stored
					}
					n.disk[dst*m.cfg.Keys+k] = true
					n.offerLanded[k] = true
				}
				return n
			}})
		}
		if len(fetched) > 0 {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("fetch-deliver/%d", b), Next: func() mc.State {
				n := s.clone()
				for _, k := range fetched {
					n.fetchPhase[k] = msgDone
					rd := m.reader[k]
					if !s.up[rd] {
						continue
					}
					if _, err := vcache.DecodeEntry(m.keys[k], m.frameBytes(k, s.fetchPhase[k], s.fetchMode[k])); err != nil {
						continue // corrupt frame is a miss: the reader degrades
					}
					n.disk[rd*m.cfg.Keys+k] = true
					n.fetchLanded[k] = true
				}
				return n
			}})
		}
	}

	// Crash (bounded) and restart (free while down). Crash keeps the
	// disk slice untouched — that IS the durability contract — and
	// takes the forwarder's queue with it: forwards not yet sent are
	// never sent. What is already on the wire is the network's.
	for nd := 0; nd < m.cfg.Nodes; nd++ {
		if s.up[nd] && int(s.crashes) < m.cfg.MaxCrashes {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("crash/n%d", nd), Next: func() mc.State {
				n := s.clone()
				n.up[nd] = false
				n.crashes++
				for k := 0; k < m.cfg.Keys; k++ {
					if s.offerPhase[k] == msgQueued && m.producer[k] == nd {
						n.offerPhase[k] = msgDone
					}
				}
				return n
			}})
		}
		if !s.up[nd] {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("restart/n%d", nd), Next: func() mc.State {
				n := s.clone()
				n.up[nd] = true
				return n
			}})
		}
	}

	// Buggy only: a node's failure detector observes a peer's actual
	// state. Observations are per-node and unsynchronized — that lag is
	// exactly what lets two live nodes compute different owners.
	if m.cfg.Buggy {
		for nd := 0; nd < m.cfg.Nodes; nd++ {
			for p := 0; p < m.cfg.Nodes; p++ {
				if nd == p || !s.up[nd] || s.views[nd*m.cfg.Nodes+p] == s.up[p] {
					continue
				}
				acts = append(acts, mc.Action{Name: fmt.Sprintf("n%d/observe/n%d", nd, p), Next: func() mc.State {
					n := s.clone()
					n.views[nd*m.cfg.Nodes+p] = s.up[p]
					return n
				}})
			}
		}
	}
	return acts
}

// Terminal: every key produced and every frame resolved. (A state with
// unproduced keys or queued forwards always has produce, send,
// crash-budget, or restart actions enabled, so an actionless state
// satisfies this.)
func (m *ClusterM) Terminal(st mc.State) bool {
	s := st.(*clusterState)
	for k := 0; k < m.cfg.Keys; k++ {
		if !s.produced[k] || s.offerPhase[k] != msgDone || s.fetchPhase[k] != msgDone {
			return false
		}
	}
	return true
}

func (m *ClusterM) Invariants() []mc.Invariant {
	return []mc.Invariant{
		// The tentpole property: at every reachable state, every live
		// node computes the SAME owner for every fingerprint — ownership
		// is a pure function of (static member list, key), so there is
		// exactly one owner, fleet-wide, always. The Buggy variant
		// (ownership over node-local liveness views) violates this two
		// steps after a crash.
		{Name: "every-fingerprint-has-exactly-one-owner", Check: func(st mc.State) error {
			s := st.(*clusterState)
			for k := 0; k < m.cfg.Keys; k++ {
				owner := -1
				for n := 0; n < m.cfg.Nodes; n++ {
					if !s.up[n] {
						continue
					}
					got := s.ownerOf(n, k)
					if owner < 0 {
						owner = got
						continue
					}
					if got != owner {
						return fmt.Errorf("key %d: n%d says owner n%d but another live node says n%d",
							k, n, got, owner)
					}
				}
			}
			return nil
		}},
		// Content addressing makes staleness impossible *provided* the
		// decode gate holds: every shard copy decodes (with the shipped
		// codec) back to byte-identical canonical content, and every
		// damaged in-flight message MUST fail DecodeEntry — if any
		// damage mode slipped through, a corrupt forward could commit.
		{Name: "forwarded-verdict-never-stale", Check: func(st mc.State) error {
			s := st.(*clusterState)
			for k := 0; k < m.cfg.Keys; k++ {
				for n := 0; n < m.cfg.Nodes; n++ {
					if !s.disk[n*m.cfg.Keys+k] {
						continue
					}
					e, err := vcache.DecodeEntry(m.keys[k], m.clean[k])
					if err != nil {
						return fmt.Errorf("n%d key %d: committed copy fails decode: %v", n, k, err)
					}
					re, err := vcache.EncodeEntry(m.keys[k], e)
					if err != nil || !bytes.Equal(re, m.clean[k]) {
						return fmt.Errorf("n%d key %d: committed copy is not the canonical verdict", n, k)
					}
				}
				for _, msg := range []struct {
					phase, mode int8
					what        string
				}{
					{s.offerPhase[k], s.offerMode[k], "offer"},
					{s.fetchPhase[k], s.fetchMode[k], "fetch"},
				} {
					if msg.phase != msgDamaged {
						continue
					}
					if _, err := vcache.DecodeEntry(m.keys[k], m.damaged[k][msg.mode]); err == nil {
						return fmt.Errorf("key %d: %s damaged with %s would pass the decode gate and commit",
							k, msg.what, m.modes[msg.mode])
					}
				}
			}
			return nil
		}},
		// Durability: a verdict that was committed anywhere — by the
		// producer's write-through Put, a delivered forward, or a
		// warming fetch — is still on that node's disk at every later
		// state, crashes and restarts included; in particular a crash
		// that loses a queued forward does not lose its verdict.
		{Name: "no-committed-verdict-lost", Check: func(st mc.State) error {
			s := st.(*clusterState)
			for k := 0; k < m.cfg.Keys; k++ {
				if s.produced[k] && !s.disk[m.producer[k]*m.cfg.Keys+k] {
					return fmt.Errorf("key %d: producer n%d acked but its shard is empty", k, m.producer[k])
				}
				if s.offerLanded[k] && !s.disk[int(s.offerDst[k])*m.cfg.Keys+k] {
					return fmt.Errorf("key %d: delivered forward vanished from n%d", k, s.offerDst[k])
				}
				if s.fetchLanded[k] && !s.disk[m.reader[k]*m.cfg.Keys+k] {
					return fmt.Errorf("key %d: warmed copy vanished from reader n%d", k, m.reader[k])
				}
			}
			return nil
		}},
	}
}
