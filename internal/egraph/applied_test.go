package egraph

import (
	"fmt"
	"testing"
)

// The applied set answers by key bytes, not by hash: keys that share a
// hash — here all of them — are told apart, through every growth of the
// table and again after a reset.
func TestAppliedSetFullKeyCompare(t *testing.T) {
	var a appliedSet
	key := func(i int) []byte { return []byte(fmt.Sprintf("rule-%d\x00%04d", i%7, i)) }
	for round := 0; round < 2; round++ {
		for i := 0; i < 500; i++ {
			h := uint32(i % 3) // three hashes for five hundred keys
			if a.has(key(i), h) {
				t.Fatalf("round %d: key %d reported before it was added", round, i)
			}
			a.add(key(i), h)
			if !a.has(key(i), h) {
				t.Fatalf("round %d: key %d not found after add", round, i)
			}
		}
		for i := 0; i < 500; i++ {
			if !a.has(key(i), uint32(i%3)) {
				t.Fatalf("round %d: key %d lost to a table growth", round, i)
			}
			if a.has(append(key(i), 'x'), uint32(i%3)) || a.has(key(i)[:len(key(i))-1], uint32(i%3)) {
				t.Fatalf("round %d: a key one byte off key %d was reported", round, i)
			}
		}
		if a.n != 500 {
			t.Fatalf("round %d: set counts %d keys, want 500", round, a.n)
		}
		a.reset()
		if a.n != 0 || len(a.keys) != 0 || a.has(key(1), 1) {
			t.Fatalf("round %d: reset left %d keys, %d key bytes", round, a.n, len(a.keys))
		}
	}
}

// What a reset keeps is bounded in bytes.
func TestAppliedSetRetentionBounded(t *testing.T) {
	var a appliedSet
	for i := 0; a.n*8 <= keepAppliedBytes; i++ {
		k := []byte(fmt.Sprintf("%012d", i))
		a.add(k, hashFingerprint(k))
	}
	if cap(a.keys) <= keepAppliedBytes || len(a.table)*8 <= keepAppliedBytes {
		t.Fatalf("the set did not outgrow the bound: %d key bytes, %d table bytes", cap(a.keys), len(a.table)*8)
	}
	a.reset()
	if cap(a.keys) != 0 || len(a.table) != 0 {
		t.Errorf("reset kept %d key bytes and %d table bytes, bound %d each", cap(a.keys), len(a.table)*8, keepAppliedBytes)
	}
	k := []byte("again")
	a.add(k, hashFingerprint(k))
	if !a.has(k, hashFingerprint(k)) {
		t.Error("the set does not work after dropping its memory")
	}
}
