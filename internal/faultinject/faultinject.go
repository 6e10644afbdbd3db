// Package faultinject is deterministic, seed-driven fault injection for
// the checking pipeline's chaos tests and the cluster simulator. A
// fault family is a plain value — a seed and its rates — whose
// decisions are pure functions of (seed, label): a splitmix64-style
// hash decides, independently of worker count, scheduling order, or
// wall clock, whether an operator's check panics or runs
// budget-starved, and whether a peer message is dropped or corrupted.
// That schedule independence is what lets the chaos tests demand
// byte-identical KeepGoing failure reports from Workers=1 and Workers=8
// runs under the same seed. Nothing here counts what it injected: a
// caller that needs a census keeps one.
//
// Config attaches to the checker through core.Options.PreOp, which runs
// on the worker goroutine about to check the operator — exactly where a
// buggy lemma would fault:
//
//	cfg := faultinject.Config{Seed: 7, PanicRate: 0.1}
//	opts := core.Options{PreOp: cfg.PreOp, KeepGoing: true}
package faultinject

import (
	"fmt"
	"os"

	"entangle/internal/det"
	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/vcache"
)

// Fault is the decision for one operator.
type Fault int

const (
	// None: the operator runs untouched.
	None Fault = iota
	// Panic: the worker panics before the check starts (the checker
	// must recover it into an EngineFault verdict).
	Panic
	// Starve: the operator runs with the starved saturation budget,
	// exercising budget escalation and the Inconclusive(BudgetExhausted)
	// verdict.
	Starve
)

// The starved saturation budget: small enough that any real operator
// hits the limit even after the checker's one ×4 escalation.
const (
	starveMaxIters = 1
	starveMaxNodes = 1
)

func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Starve:
		return "starve"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Config is the operator fault family. Rates are per-operator
// probabilities in [0, 1], carved out of the unit interval in order
// panic, starve: an operator's hash point u ∈ [0,1) injects a panic when
// u < PanicRate and starves it when u < PanicRate+StarveRate. Zero rates
// inject nothing.
type Config struct {
	// Seed drives the per-operator hash. Two configs with the same seed
	// and rates make identical decisions for every label.
	Seed uint64
	// PanicRate is the fraction of operators whose check panics.
	PanicRate float64
	// StarveRate is the fraction of operators run budget-starved.
	StarveRate float64
}

// Decide returns the fault for an operator label. Pure: it depends
// only on (Seed, rates, label).
func (c Config) Decide(label string) Fault {
	return Fault(carve(c.Seed, label, c.PanicRate, c.StarveRate))
}

// PreOp is the core.Options.PreOp hook: it executes the decided fault
// for v on the calling worker goroutine. Panic faults panic with a
// recognizable value; Starve faults return the starved saturation
// budget; None returns nil (keep the configured budget).
func (c Config) PreOp(v *graph.Node) *egraph.SaturateOpts {
	switch c.Decide(v.Label) {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic in lemma for operator %q (seed %d)", v.Label, c.Seed))
	case Starve:
		return &egraph.SaturateOpts{MaxIters: starveMaxIters, MaxNodes: starveMaxNodes}
	}
	return nil
}

// CacheFault is one way a verdict-cache entry can be damaged, on disk
// or on the wire. The modes mirror the failure envelope vcache's reader
// must absorb: a short entry (Truncate), media rot (BitFlip,
// FlipChecksum), a foreign or wrong-version entry (BadMagic), a lost
// payload (HeaderOnly), and a zero-length entry (Empty).
type CacheFault int

const (
	// Truncate cuts the entry in half.
	Truncate CacheFault = iota
	// BitFlip flips one bit in the payload (checksum must catch it).
	BitFlip
	// BadMagic clobbers the version tag.
	BadMagic
	// Empty leaves a zero-length entry.
	Empty
	// HeaderOnly keeps the three header lines but drops the whole
	// payload (a write that persisted only its first block).
	HeaderOnly
	// FlipChecksum flips one byte inside the stored checksum line
	// itself, so the payload is intact but its recorded digest lies.
	FlipChecksum
	numCacheFaults
)

func (f CacheFault) String() string {
	switch f {
	case Truncate:
		return "truncate"
	case BitFlip:
		return "bit-flip"
	case BadMagic:
		return "bad-magic"
	case Empty:
		return "empty"
	case HeaderOnly:
		return "header-only"
	case FlipChecksum:
		return "flip-checksum"
	}
	return fmt.Sprintf("CacheFault(%d)", int(f))
}

// CacheFaults enumerates every damage mode, for tests and models that
// want exhaustive coverage of the reader's failure envelope.
func CacheFaults() []CacheFault {
	out := make([]CacheFault, 0, int(numCacheFaults))
	for f := CacheFault(0); f < numCacheFaults; f++ {
		out = append(out, f)
	}
	return out
}

// Damage returns a damaged copy of an encoded verdict-cache entry
// under the given fault mode. Pure: it never touches the filesystem
// and never mutates data. CorruptCache, the edge-case tests, and the
// internal/mc verdict-cache model all damage bytes through this one
// function, so the byte patterns the store must survive are defined in
// exactly one place.
func Damage(data []byte, mode CacheFault) []byte {
	out := append([]byte(nil), data...)
	switch mode {
	case Truncate:
		out = out[:len(out)/2]
	case BitFlip:
		if len(out) > 0 {
			out[len(out)-1] ^= 0x01
		}
	case BadMagic:
		if len(out) > 0 {
			out[0] = 'X'
		}
	case Empty:
		out = out[:0]
	case HeaderOnly:
		// Keep through the third newline (magic, key, checksum lines).
		seen := 0
		for i, b := range out {
			if b == '\n' {
				if seen++; seen == 3 {
					out = out[:i+1]
					break
				}
			}
		}
	case FlipChecksum:
		// The checksum is the third header line; flip its first byte
		// (hex digit), leaving the payload untouched.
		seen := 0
		for i, b := range out {
			if b == '\n' {
				if seen++; seen == 2 {
					if i+1 < len(out) {
						out[i+1] ^= 0x01
					}
					break
				}
			}
		}
	}
	return out
}

// CorruptCache damages every verdict-cache record in dir's segments,
// each with a fault mode chosen deterministically from (seed, the
// record's key in hex) — the same hash discipline as operator faults,
// so a chaos run is reproducible byte for byte — and re-frames each
// segment around the damaged entries, so every mode lands on the entry
// it names rather than on the framing. It returns how many records it
// damaged. The cache contract under this attack is total miss, never a
// wrong verdict: vcache classifies every damaged record as corrupt.
func CorruptCache(dir string, seed uint64) (int, error) {
	return corruptCache(dir, func(key string) CacheFault { return pickDamage(seed, key) })
}

func corruptCache(dir string, pick func(key string) CacheFault) (int, error) {
	paths, err := vcache.SegmentPaths(dir)
	if err != nil {
		return 0, err
	}
	damaged := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return damaged, err
		}
		var out []byte
		vcache.ScanSegment(data, func(key fingerprint.Hash, entry []byte) {
			out = vcache.AppendFrame(out, key, Damage(entry, pick(key.Hex())))
			damaged++
		})
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return damaged, err
		}
	}
	return damaged, nil
}

// NetFault is one way a peer-to-peer message can be damaged in flight
// — the network fault family behind the cluster simulator
// (internal/cluster/sim). Crash/restart and partition/heal are
// topology events scripted by the simulator itself, not per-message
// faults, so they do not appear here.
type NetFault int

const (
	// NetNone: the message is delivered intact.
	NetNone NetFault = iota
	// NetDrop: the message is lost, or its reply misses the sender's
	// per-call deadline — either way the sender sees a failure at once
	// and falls back to its local path.
	NetDrop
	// NetCorrupt: the payload is damaged in flight (the Damage mode
	// DamageMode picks); the receiver's DecodeEntry must classify it as
	// a miss, never a wrong verdict.
	NetCorrupt
)

func (f NetFault) String() string {
	switch f {
	case NetNone:
		return "none"
	case NetDrop:
		return "drop"
	case NetCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("NetFault(%d)", int(f))
}

// NetConfig is the network fault family. Rates are per-message
// probabilities carved out of the unit interval in order drop, corrupt
// — the same discipline as operator faults. A message is identified by
// a label the transport builds from (src, dst, verb, key, sequence
// number), so decisions are schedule-independent — the same message
// gets the same fate however worker goroutines interleave — while the
// same key sent again over the same link (a later sequence number)
// re-rolls.
type NetConfig struct {
	// Seed drives the per-message hash.
	Seed uint64
	// DropRate is the fraction of messages that are lost or late.
	DropRate float64
	// CorruptRate is the fraction of messages whose payload is damaged
	// in flight.
	CorruptRate float64
}

// Decide returns the fault for one message label. Pure: it depends
// only on (Seed, rates, label).
func (c NetConfig) Decide(label string) NetFault {
	return NetFault(carve(c.Seed, label, c.DropRate, c.CorruptRate))
}

// DamageMode picks the Damage mode for a NetCorrupt message,
// deterministically from a hash of (seed, label) independent of
// Decide's.
func (c NetConfig) DamageMode(label string) CacheFault {
	return pickDamage(c.Seed^0xc0a7, label)
}

// carve returns 1 + the index of the rate interval (seed, label)'s
// hash point falls in, the rates carved out of [0, 1) in order; 0 when
// it falls past them all. A fault enum lists its faults in rate order
// after its zero "none", so the result converts to it directly.
func carve(seed uint64, label string, rates ...float64) int {
	u, edge := unit(seed, label), 0.0
	for i, r := range rates {
		if edge += r; u < edge {
			return i + 1
		}
	}
	return 0
}

// pickDamage chooses a Damage mode uniformly from (seed, label).
func pickDamage(seed uint64, label string) CacheFault {
	return CacheFault(uint64(unit(seed, label)*float64(numCacheFaults))) % numCacheFaults
}

// unit hashes (seed, label) to a uniform point in [0, 1).
func unit(seed uint64, label string) float64 {
	return det.Unit(det.Mix(det.String(det.FNVOffset^seed, label)))
}
