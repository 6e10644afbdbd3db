package cluster

import (
	"sync"
	"time"
)

// The per-peer circuit breaker's two constants.
const (
	breakerThreshold = 3               // consecutive failed calls that open it
	breakerCooldown  = 5 * time.Second // how long it stays open before one probe
)

// Clock is the breakers' time seam: production reads the wall clock,
// while tests and the simulator substitute their own — keeping the
// package inside the determinism lint's contract (no direct wall-clock
// reads on decision paths).
type Clock interface {
	Now() time.Time
}

// RealClock is the production Clock.
type RealClock struct{}

// Now returns the wall-clock time.
func (RealClock) Now() time.Time {
	//lint:ignore determinism the breaker cooldown is wall-clock by design; tests inject a fake Clock
	return time.Now()
}

// breaker is one peer's circuit breaker: closed (traffic flows) →
// open after breakerThreshold consecutive failed calls (traffic
// skipped, the caller degrades to its local path without paying a
// timeout) → half-open after breakerCooldown (exactly one probe
// allowed) → closed again on probe success, open on probe failure.
// Calling a dead peer costs a timeout per call; the breaker caps that
// at one timeout per cooldown window for the whole node.
type breaker struct {
	clock Clock

	mu        sync.Mutex
	failures  int       // consecutive failures while closed
	openUntil time.Time // zero when closed
	probing   bool      // a half-open probe is in flight
}

func newBreaker(clock Clock) *breaker {
	return &breaker{clock: clock}
}

// Allow reports whether a call to the peer may proceed. While open it
// returns false until the cooldown expires; the first Allow after that
// claims the single half-open probe slot.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if b.clock.Now().Before(b.openUntil) {
		return false
	}
	// Cooldown over: admit exactly one probe; everyone else keeps
	// degrading until the probe reports.
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call, closing the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	b.failures, b.openUntil, b.probing = 0, time.Time{}, false
	b.mu.Unlock()
}

// Failure records a failed call, reporting whether this failure was a
// half-open probe that re-opened the breaker. While closed it counts
// toward the threshold.
func (b *breaker) Failure() (reopened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		b.openUntil = b.clock.Now().Add(breakerCooldown)
		return true
	}
	if !b.openUntil.IsZero() {
		return false // already open; late failures from in-flight calls don't extend it
	}
	b.failures++
	if b.failures >= breakerThreshold {
		b.openUntil = b.clock.Now().Add(breakerCooldown)
		b.failures = 0
	}
	return false
}

// Open reports whether the breaker is currently refusing traffic
// (tests only; racy by nature).
func (b *breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && b.clock.Now().Before(b.openUntil)
}
