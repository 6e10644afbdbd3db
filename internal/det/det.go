// Package det is the repo's one deterministic hash/PRNG family:
// splitmix64 as a finalizer (Mix) and a seeded stream (RNG), fed by
// FNV-1a folds of labels and keys. Rendezvous ownership, retry jitter,
// fault decisions, fuzz plans and model-checker walks all draw from it,
// so none depends on math/rand, a Go version, a platform or a schedule.
package det

// FNVOffset is the FNV-1a 64-bit offset basis, the usual start of a
// String/Bytes fold; FNVPrime is the multiplier of each FNV-1a step,
// for a caller that folds words rather than bytes.
const (
	FNVOffset uint64 = 14695981039346656037
	FNVPrime  uint64 = 1099511628211
)

const gamma = 0x9e3779b97f4a7c15

// String folds s into h, one FNV-1a step per byte.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * FNVPrime
	}
	return h
}

// Bytes is String over a byte slice.
func Bytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * FNVPrime
	}
	return h
}

// Mix is one splitmix64 step: advance h by gamma, then avalanche.
func Mix(h uint64) uint64 {
	h += gamma
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Unit maps a mixed hash to a uniform point in [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// RNG is a splitmix64 stream.
type RNG struct{ state uint64 }

// NewRNG returns a deterministic stream for the given seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 advances the stream.
func (r *RNG) Uint64() uint64 {
	z := Mix(r.state)
	r.state += gamma
	return z
}

// Intn returns a value in [0, n); n must be positive. The modulo bias
// is irrelevant at the scales used here.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("det: Intn on non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool flips a fair coin.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }
