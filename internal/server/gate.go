package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrDraining is returned by Gate.Acquire once a drain has begun: the
// daemon is shutting down and admits no new work.
var ErrDraining = errors.New("server: draining, not admitting new work")

// GateCore is the pure admission/drain state machine of the daemon:
// a bounded count of in-flight checks plus a one-way drain latch.
// It has no locks and no channels — Gate wraps it for the production
// HTTP path, and the internal/mc daemon model drives copies of it
// directly, so the exhaustively checked protocol ("drain admits no new
// work, completes all admitted work") is the shipped decision logic.
type GateCore struct {
	// Cap bounds concurrent admissions.
	Cap int
	// InFlight counts admitted, not-yet-completed checks.
	InFlight int
	// Draining is set (irrevocably) when shutdown begins.
	Draining bool
	// Drained is set once Draining held with InFlight == 0.
	Drained bool
}

// CanAdmit reports whether a new check may start: never while
// draining, never beyond capacity.
func (g *GateCore) CanAdmit() bool {
	return !g.Draining && g.InFlight < g.Cap
}

// Admit records one admission. Callers must have checked CanAdmit
// under the same critical section; Admit returns false (and changes
// nothing) if the admission would be illegal, which the model checker
// turns into an invariant violation rather than a silent overshoot.
func (g *GateCore) Admit() bool {
	if !g.CanAdmit() {
		return false
	}
	g.InFlight++
	return true
}

// Complete records one admitted check finishing and advances the drain
// latch when this was the last one.
func (g *GateCore) Complete() {
	g.InFlight--
	g.advance()
}

// StartDrain sets the drain latch. Idempotent.
func (g *GateCore) StartDrain() {
	g.Draining = true
	g.advance()
}

// advance marks the drain complete once nothing is in flight.
func (g *GateCore) advance() {
	if g.Draining && g.InFlight == 0 {
		g.Drained = true
	}
}

// Gate is the concurrency shell around GateCore: a context-aware
// bounded semaphore with a drain latch. Acquire blocks while the gate
// is at capacity, fails fast with ErrDraining once a drain has begun
// (including requests already queued when it begins), and respects the
// caller's context while queued. Drain waits for every admitted check
// to finish.
type Gate struct {
	mu      sync.Mutex
	core    GateCore
	changed chan struct{} // closed and replaced on every transition
}

// NewGate builds a gate admitting at most cap concurrent holders.
func NewGate(cap int) *Gate {
	return &Gate{core: GateCore{Cap: cap}, changed: make(chan struct{})}
}

// bump wakes every waiter. Caller holds g.mu.
func (g *Gate) bump() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// Acquire admits the caller or reports why it cannot: ErrDraining once
// shutdown has begun, or an error wrapping ctx.Err() if the context
// expires while queued at capacity.
func (g *Gate) Acquire(ctx context.Context) error {
	for {
		g.mu.Lock()
		if g.core.Draining {
			g.mu.Unlock()
			return ErrDraining
		}
		if g.core.Admit() {
			g.mu.Unlock()
			return nil
		}
		ch := g.changed
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("queued past deadline: %w", ctx.Err())
		}
	}
}

// Release completes one admitted check.
func (g *Gate) Release() {
	g.mu.Lock()
	g.core.Complete()
	g.bump()
	g.mu.Unlock()
}

// StartDrain flips the gate into drain mode without waiting: queued
// and future Acquires fail with ErrDraining immediately. Idempotent.
func (g *Gate) StartDrain() {
	g.mu.Lock()
	g.core.StartDrain()
	g.bump()
	g.mu.Unlock()
}

// Drain starts the drain (if not already started) and blocks until
// every admitted check has completed or ctx expires.
func (g *Gate) Drain(ctx context.Context) error {
	g.StartDrain()
	for {
		g.mu.Lock()
		if g.core.Drained {
			g.mu.Unlock()
			return nil
		}
		ch := g.changed
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Snapshot copies the core state for stats reporting.
func (g *Gate) Snapshot() GateCore {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core
}
