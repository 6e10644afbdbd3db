// Package det is the corpus for the determinism check: its directory
// suffix (internal/core) puts it under the determinism contract, and
// each function demonstrates one finding or one deliberate
// non-finding. It lives under testdata so the go tool never builds it.
package det

import (
	"context"
	"math/rand"
	"time"
)

// wallClock reads the wall clock on a hot path — the basic finding.
func wallClock() time.Time {
	return time.Now()
}

// elapsed reaches the clock through Since, which is Now in disguise.
func elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// draw pulls package-level randomness into checker state.
func draw(n int) int {
	return rand.Intn(n)
}

// annotated carries the suppression pragma with its justification, so
// it must NOT fire.
func annotated() time.Duration {
	//lint:ignore determinism duration is reporting metadata, not checker input
	start := time.Now()
	return time.Duration(int64(start.Nanosecond()))
}

// wrongPragma suppresses a different check on the same line, which
// must not silence the determinism finding.
func wrongPragma() time.Time {
	//lint:ignore source-map-range-mutation not even the right check
	return time.Now()
}

// deadline bounds work by the wall clock, so what finishes inside it
// depends on the machine.
func deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Second)
}

// formatted only touches deterministic time API: no wall-clock read,
// no finding.
func formatted(t time.Time) string {
	return t.Format(time.RFC3339)
}
