package det

import "testing"

// TestSplitmix64Vectors pins the stream to the reference splitmix64
// outputs for seed 0 (Vigna's splitmix64.c) — every seeded decision in
// the repo inherits its stability from these.
func TestSplitmix64Vectors(t *testing.T) {
	r := NewRNG(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d: %#x, want %#x", i, got, want)
		}
	}
	if Mix(0) != 0xe220a8397b1dcdaf {
		t.Fatal("Mix is not the stream's step")
	}
}

func TestFoldAndUnit(t *testing.T) {
	// FNV-1a reference: "a" hashes to 0xaf63dc4c8601ec8c.
	if got := String(FNVOffset, "a"); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("String: %#x", got)
	}
	if String(FNVOffset, "key") != Bytes(FNVOffset, []byte("key")) {
		t.Fatal("String and Bytes disagree")
	}
	if u := Unit(^uint64(0)); u < 0 || u >= 1 {
		t.Fatalf("Unit out of range: %v", u)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}
