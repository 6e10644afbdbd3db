package egraph

import (
	"bytes"
	"hash/maphash"
)

// appliedSet is the set of match fingerprints (appendFingerprint) of
// the pure-rule applications a graph has executed. Keys are kept whole,
// one after the other in a byte slab, behind an open-addressed table of
// (hash, offset) pairs; membership is decided by comparing the key
// bytes, so a hash collision costs a probe, never an answer. Neither
// piece holds a pointer: an executed application costs its fingerprint's
// bytes and eight more, with no string for the collector to find.
type appliedSet struct {
	keys  []byte        // every key: 4 bytes of length, then the key
	table []appliedSlot // len is zero or a power of two
	n     int
}

// appliedSlot places one key: the low half of its hash and where it
// starts in keys, plus one (zero is an empty slot).
type appliedSlot struct {
	hash uint32
	at   uint32
}

// appliedSeed keys the fingerprint hash. Which slot a key lands in is
// all it decides, and nothing observes that.
var appliedSeed = maphash.MakeSeed()

func hashFingerprint(key []byte) uint32 { return uint32(maphash.Bytes(appliedSeed, key)) }

// keyAt returns the key stored at offset at-1.
func (a *appliedSet) keyAt(at uint32) []byte {
	k := a.keys[at-1:]
	n := uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24
	return k[4 : 4+n]
}

// has reports whether key, whose hash is h, is in the set.
func (a *appliedSet) has(key []byte, h uint32) bool {
	if a.n == 0 {
		return false
	}
	mask := uint32(len(a.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := a.table[i]
		if s.at == 0 {
			return false
		}
		if s.hash == h && bytes.Equal(a.keyAt(s.at), key) {
			return true
		}
	}
}

// add puts key, whose hash is h and which the set does not hold, in.
func (a *appliedSet) add(key []byte, h uint32) {
	if (a.n+1)*4 > len(a.table)*3 {
		a.grow()
	}
	at := uint32(len(a.keys)) + 1
	n := uint32(len(key))
	a.keys = append(a.keys, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	a.keys = append(a.keys, key...)
	a.place(appliedSlot{hash: h, at: at})
	a.n++
}

func (a *appliedSet) place(s appliedSlot) {
	mask := uint32(len(a.table) - 1)
	for i := s.hash & mask; ; i = (i + 1) & mask {
		if a.table[i].at == 0 {
			a.table[i] = s
			return
		}
	}
}

func (a *appliedSet) grow() {
	old := a.table
	a.table = make([]appliedSlot, max(64, 2*len(old)))
	for _, s := range old {
		if s.at != 0 {
			a.place(s)
		}
	}
}

// reset empties the set, keeping its memory within keepAppliedBytes
// for the keys and as much again for the table.
func (a *appliedSet) reset() {
	if cap(a.keys) > keepAppliedBytes {
		a.keys = nil
	}
	if len(a.table)*8 > keepAppliedBytes {
		a.table = nil
	} else if a.n > 0 {
		clear(a.table)
	}
	a.keys, a.n = a.keys[:0], 0
}
