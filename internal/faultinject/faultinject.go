// Package faultinject is a deterministic, seed-driven fault injector
// for the checking pipeline's chaos tests and the `entangle-bench
// -exp chaos` experiment. Faults are keyed purely by operator label —
// a splitmix64-style hash of (seed, label) decides, independently of
// worker count, scheduling order, or wall clock, whether an operator's
// check panics, stalls, or runs budget-starved. That schedule
// independence is what lets the chaos harness demand byte-identical
// KeepGoing failure reports from Workers=1 and Workers=8 runs under
// the same seed.
//
// The injector attaches to the checker through core.Options.PreOp,
// which runs on the worker goroutine about to check the operator —
// exactly where a buggy lemma would fault:
//
//	inj := faultinject.New(faultinject.Config{Seed: 7, PanicRate: 0.1})
//	opts := core.Options{PreOp: inj.PreOp, KeepGoing: true}
package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"entangle/internal/det"
	"entangle/internal/egraph"
	"entangle/internal/graph"
)

// Fault is the decision for one operator.
type Fault int

const (
	// None: the operator runs untouched.
	None Fault = iota
	// Panic: the worker panics before the check starts (the checker
	// must recover it into an EngineFault verdict).
	Panic
	// Slow: the worker sleeps for Config.SlowFor before checking (the
	// checker's OpTimeout turns this into an Inconclusive(Timeout)
	// verdict when the sleep exceeds it).
	Slow
	// Starve: the operator runs with the starved saturation budget
	// (Config.StarveMaxIters/StarveMaxNodes), exercising budget
	// escalation and the Inconclusive(BudgetExhausted) verdict.
	Starve
)

func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Slow:
		return "slow"
	case Starve:
		return "starve"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Config parameterizes an Injector. Rates are per-operator
// probabilities in [0, 1], carved out of the unit interval in order
// panic, slow, starve: an operator's hash point u ∈ [0,1) injects a
// panic when u < PanicRate, a stall when u < PanicRate+SlowRate, and
// so on. Zero rates inject nothing.
type Config struct {
	// Seed drives the per-operator hash. Two injectors with the same
	// seed and rates make identical decisions for every label.
	Seed uint64
	// PanicRate is the fraction of operators whose check panics.
	PanicRate float64
	// SlowRate is the fraction of operators stalled for SlowFor.
	SlowRate float64
	// SlowFor is the stall duration (default 50ms).
	SlowFor time.Duration
	// StarveRate is the fraction of operators run budget-starved.
	StarveRate float64
	// StarveMaxIters / StarveMaxNodes are the starved saturation
	// budget (defaults 1 iteration, 8 nodes — small enough that any
	// real operator hits the limit).
	StarveMaxIters int
	StarveMaxNodes int
}

func (c Config) withDefaults() Config {
	if c.SlowFor == 0 {
		c.SlowFor = 50 * time.Millisecond
	}
	if c.StarveMaxIters == 0 {
		c.StarveMaxIters = 1
	}
	if c.StarveMaxNodes == 0 {
		c.StarveMaxNodes = 8
	}
	return c
}

// Injector makes deterministic per-operator fault decisions and
// records what it injected.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	injected map[string]Fault // label → decision, for reporting
}

// New builds an injector for the given config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.withDefaults(), injected: map[string]Fault{}}
}

// Decide returns the fault for an operator label. Pure: it depends
// only on (Seed, rates, label).
func (in *Injector) Decide(label string) Fault {
	u := unit(in.cfg.Seed, label)
	switch {
	case u < in.cfg.PanicRate:
		return Panic
	case u < in.cfg.PanicRate+in.cfg.SlowRate:
		return Slow
	case u < in.cfg.PanicRate+in.cfg.SlowRate+in.cfg.StarveRate:
		return Starve
	}
	return None
}

// PreOp is the core.Options.PreOp hook: it executes the decided fault
// for v on the calling worker goroutine. Panic faults panic with a
// recognizable value; Slow faults sleep; Starve faults return the
// starved saturation budget; None returns nil (keep the configured
// budget).
func (in *Injector) PreOp(v *graph.Node) *egraph.SaturateOpts {
	f := in.Decide(v.Label)
	in.mu.Lock()
	if f != None {
		in.injected[v.Label] = f
	}
	in.mu.Unlock()
	switch f {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic in lemma for operator %q (seed %d)", v.Label, in.cfg.Seed))
	case Slow:
		time.Sleep(in.cfg.SlowFor)
	case Starve:
		return &egraph.SaturateOpts{MaxIters: in.cfg.StarveMaxIters, MaxNodes: in.cfg.StarveMaxNodes}
	}
	return nil
}

// Injected reports how many faults of each kind fired so far. Safe for
// concurrent use with PreOp.
func (in *Injector) Injected() map[Fault]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := map[Fault]int{}
	for _, f := range in.injected {
		out[f]++
	}
	return out
}

// CacheFault is one way an on-disk verdict-cache entry can be damaged.
// The modes mirror the failure envelope vcache's reader must absorb: a
// torn write (Truncate), media rot (BitFlip, FlipChecksum), a foreign
// or wrong-version file (BadMagic), a lost payload (HeaderOnly), and a
// zero-length file (Empty).
type CacheFault int

const (
	// Truncate cuts the file in half (torn write).
	Truncate CacheFault = iota
	// BitFlip flips one bit in the payload (checksum must catch it).
	BitFlip
	// BadMagic clobbers the version tag.
	BadMagic
	// Empty leaves a zero-length file.
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

// CorruptCache damages every verdict-cache entry file under dir, each
// with a fault mode chosen deterministically from (seed, file name) —
// the same hash discipline as operator faults, so a chaos run is
// reproducible byte for byte. It returns how many files it damaged.
// The cache contract under this attack is total miss, never a wrong
// verdict: vcache classifies every damaged file as corrupt.
func CorruptCache(dir string, seed uint64) (int, error) {
	return corruptCache(dir, func(name string) CacheFault {
		return CacheFault(uint64(unit(seed, name)*float64(numCacheFaults))) % numCacheFaults
	})
}

// CorruptCacheMode damages every verdict-cache entry file under dir
// with one fixed fault mode — the targeted variant CorruptCache's
// seeded sampling cannot guarantee for any single file.
func CorruptCacheMode(dir string, mode CacheFault) (int, error) {
	return corruptCache(dir, func(string) CacheFault { return mode })
}

func corruptCache(dir string, pick func(name string) CacheFault) (int, error) {
	damaged := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		damaged++
		return os.WriteFile(path, Damage(data, pick(filepath.Base(path))), info.Mode())
	})
	return damaged, err
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
	// NetDrop: the message vanishes; the sender sees a connection
	// error (and its retry policy decides what happens next).
	NetDrop
	// NetDelay: the reply arrives after the sender's per-attempt
	// deadline; the sender sees a timeout. The simulator models this
	// as an immediate deadline error rather than a real sleep, so
	// chaos tests stay fast and deterministic.
	NetDelay
	// NetCorrupt: the payload is damaged in flight (a Damage mode
	// chosen from the same hash); the receiver's DecodeEntry must
	// classify it as a miss, never a wrong verdict.
	NetCorrupt
)

func (f NetFault) String() string {
	switch f {
	case NetNone:
		return "none"
	case NetDrop:
		return "drop"
	case NetDelay:
		return "delay"
	case NetCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("NetFault(%d)", int(f))
}

// NetConfig parameterizes a NetInjector. Rates are per-message
// probabilities carved out of the unit interval in order drop, delay,
// corrupt — the same discipline as operator faults.
type NetConfig struct {
	// Seed drives the per-message hash.
	Seed uint64
	// DropRate is the fraction of messages that vanish.
	DropRate float64
	// DelayRate is the fraction of messages that miss the sender's
	// per-attempt deadline.
	DelayRate float64
	// CorruptRate is the fraction of messages whose payload is damaged
	// in flight.
	CorruptRate float64
}

// NetInjector makes deterministic per-message fault decisions. A
// message is identified by a label the transport builds from
// (src, dst, verb, key, attempt), so decisions are schedule-independent
// — the same message gets the same fate however worker goroutines
// interleave — while a retry (different attempt number) re-rolls.
type NetInjector struct {
	cfg NetConfig

	mu       sync.Mutex
	injected map[NetFault]int
}

// NewNet builds a network fault injector.
func NewNet(cfg NetConfig) *NetInjector {
	return &NetInjector{cfg: cfg, injected: map[NetFault]int{}}
}

// Decide returns the fault for one message label. Pure: it depends
// only on (Seed, rates, label).
func (in *NetInjector) Decide(label string) NetFault {
	u := unit(in.cfg.Seed, label)
	var f NetFault
	switch {
	case u < in.cfg.DropRate:
		f = NetDrop
	case u < in.cfg.DropRate+in.cfg.DelayRate:
		f = NetDelay
	case u < in.cfg.DropRate+in.cfg.DelayRate+in.cfg.CorruptRate:
		f = NetCorrupt
	default:
		return NetNone
	}
	in.mu.Lock()
	in.injected[f]++
	in.mu.Unlock()
	return f
}

// DamageMode picks the Damage mode for a NetCorrupt message,
// deterministically from the same (seed, label) hash family.
func (in *NetInjector) DamageMode(label string) CacheFault {
	return CacheFault(uint64(unit(in.cfg.Seed^0xc0a7, label)*float64(numCacheFaults))) % numCacheFaults
}

// Injected reports how many faults of each kind fired so far.
func (in *NetInjector) Injected() map[NetFault]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := map[NetFault]int{}
	for f, n := range in.injected {
		out[f] = n
	}
	return out
}

// unit hashes (seed, label) to a uniform point in [0, 1).
func unit(seed uint64, label string) float64 {
	return det.Unit(det.Mix(det.String(det.FNVOffset^seed, label)))
}
