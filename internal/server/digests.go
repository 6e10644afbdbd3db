package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sync"

	"entangle/internal/fingerprint"
	"entangle/internal/graph"
)

// digestSlots sizes a daemon's G_d digest table. Re-checks work against
// a handful of distributed graphs at a time; a thousand slots keep
// collisions among them rare, for 64 KiB.
const digestSlots = 1024

// digestTable remembers the G_d digest (fingerprint.GraphDigest) of each
// distinct G_d the daemon decoded, so a re-check against a G_d it has
// seen pays one SHA-256 of the bytes instead of re-hashing every node's
// cone. It is direct-mapped and fixed: a slot is addressed by the
// SHA-256 of the request's format and the exact span of its G_d member,
// holds only a G_d that decoded, and a collision overwrites it. What it
// keeps is 64 bytes a slot, 64 KiB in all, allocated with the Server.
type digestTable struct {
	mu    sync.Mutex
	slots [digestSlots]digestSlot
}

// digestSlot maps one span's SHA-256 to the digest of the graph decoded
// from it. The zero span hash marks an empty slot.
type digestSlot struct {
	span, digest fingerprint.Hash
}

// decodeGd builds a request's G_d, the member m whose span is raw, and
// returns the graph's digest with it: the table's when it holds the
// span, derived from the built graph and entered otherwise.
func (t *digestTable) decodeGd(m *graphMember, raw json.RawMessage, format string) (*graph.Graph, fingerprint.Hash, error) {
	gd, err := m.build(raw, format)
	if err != nil {
		return nil, fingerprint.Hash{}, err
	}
	span := spanHash(format, raw)
	slot := &t.slots[binary.LittleEndian.Uint16(span[:])%digestSlots]
	t.mu.Lock()
	if slot.span == span {
		digest := slot.digest
		t.mu.Unlock()
		return gd, digest, nil
	}
	t.mu.Unlock()
	digest := fingerprint.GraphDigest(gd)
	t.mu.Lock()
	*slot = digestSlot{span: span, digest: digest}
	t.mu.Unlock()
	return gd, digest, nil
}

// spanHash is SHA-256(format ‖ 0 ‖ raw), which covers every byte a
// member's graph is built from.
func spanHash(format string, raw []byte) (h fingerprint.Hash) {
	d := sha256.New()
	d.Write([]byte(format))
	d.Write([]byte{0})
	d.Write(raw)
	d.Sum(h[:0])
	return h
}
