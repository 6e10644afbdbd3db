package main

// The four workloads. Each is a primed state plus a fixed request
// stream built from the seed; a measured phase walks the stream to its
// end and is cut short only when a host far slower than the reference
// machine runs out of time. Counts are frozen here (BENCHMARK.json has
// no field for them).

import (
	"fmt"

	"entangle/internal/vcache"
)

// expectation is the cache shape a response must show, checked from
// the response's own fields so a workload can never silently turn warm
// into cold or the reverse.
type expectation int

const (
	expectCold    expectation = iota // cache.hits == 0
	expectWarm                       // cache.misses == 0
	expectRecheck                    // rechecked_ops == cone, the rest replayed
)

var expectationNames = []string{"cold", "warm", "recheck"}

// request is one position of a stream.
type request struct {
	body   *body
	node   int // which daemon receives it
	expect expectation
}

// workload is one generated traffic mix.
type workload struct {
	name  string
	nodes int
	// disk puts the daemons' verdict caches in directories; otherwise
	// they are the daemon's default, in memory only.
	disk bool
	// prime is sent untimed, in order, as part of set-up.
	prime []request
	// stream is the measured sequence; traced is how long a prefix of
	// it the traced run replays.
	stream []request
	traced int
}

// Frozen sizes of one measured phase at -scale 1, i.e. at the nominal
// -seconds 12 split over three replicas: what the seed commit completes
// in about 4 s on the 2-core reference machine. Counts are whole zoo
// blocks wherever bodies are drawn, so every run of a workload does the
// same work whatever its seed: a phase cut off by the clock would end
// inside a block, and whether that block's few heavy combinations fell
// before or after the cut moves latency_p90_ms and throughput_rps by
// several percent.
const (
	blockSize = 30 // |zooCombos()|

	// coldWarmup bodies are checked before timing: they grow the heap
	// and materialize the lemma registry a long-lived daemon already
	// has, and share no cache key with the measured bodies.
	coldWarmup = 1 * blockSize
	coldBodies = 5 * blockSize

	warmPrimed   = 5 * blockSize // ~5,000 verdicts: more than vcache.DefaultMaxEntries
	warmHotShare = 5             // the first block of the primed bodies is the hot set
	warmRequests = 1500          // 80% hot, 20% tail

	// Every (base, swap site) pair is one request: 126. The primed
	// verdicts and the stream's stores must all fit the daemon's cache
	// in memory, or a base would quietly be re-checked cold.
	editBases = 1 * blockSize

	fleetNodes  = 3
	fleetBodies = 2 * blockSize // x3 touches: 180 measured requests
	// fleetLagTicks separates a body's touches by 22 ticks of three
	// requests: 66 positions, over the 64 the schedule promises.
	fleetLagTicks = 22
	fleetMinLag   = 64

	// Traced prefixes; tracedCold and tracedEdit are deliberately not
	// whole blocks (nor a whole stream), so that the exact egraph counts
	// differ from seed to seed.
	tracedCold  = 100
	tracedWarm  = 700
	tracedEdit  = 100
	tracedFleet = 150
)

var workloadNames = []string{"cold_zoo", "warm_replay", "edit_recheck", "fleet3_handoff"}

// scaled is n at the given scale, in whole blocks once it is at least
// one block, and never less than 1.
func scaled(n int, scale float64) int {
	s := int(float64(n)*scale + 0.5)
	if s >= blockSize && n%blockSize == 0 {
		s -= s % blockSize
	}
	return max(s, 1)
}

// buildWorkload generates workload name from seed. The daemon sees only
// the generated bodies, never the name.
func buildWorkload(name string, seed int64, scale float64) (*workload, error) {
	for i, n := range workloadNames {
		if n == name {
			// Each workload draws from its own stream of the seed.
			g := newGenerator(seed*int64(len(workloadNames)) + int64(i))
			w := &workload{name: name, nodes: 1}
			var err error
			switch name {
			case "cold_zoo":
				err = w.buildCold(g, scale)
			case "warm_replay":
				err = w.buildWarm(g, scale)
			case "edit_recheck":
				err = w.buildEdit(g, scale)
			case "fleet3_handoff":
				err = w.buildFleet(g, scale)
			}
			if err != nil {
				return nil, fmt.Errorf("workload %s: %w", name, err)
			}
			if w.traced > len(w.stream) {
				w.traced = len(w.stream)
			}
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func (w *workload) buildCold(g *generator, scale float64) error {
	warmup, err := g.checkBodies(scaled(coldWarmup, scale))
	if err != nil {
		return err
	}
	for _, b := range warmup {
		w.prime = append(w.prime, request{body: b, expect: expectCold})
	}
	bodies, err := g.checkBodies(scaled(coldBodies, scale))
	if err != nil {
		return err
	}
	for _, b := range bodies {
		w.stream = append(w.stream, request{body: b, expect: expectCold})
	}
	w.traced = scaled(tracedCold, scale)
	return nil
}

func (w *workload) buildWarm(g *generator, scale float64) error {
	w.disk = true // the tail is served from disk after LRU eviction
	bodies, err := g.checkBodies(scaled(warmPrimed, scale))
	if err != nil {
		return err
	}
	for _, b := range bodies {
		w.prime = append(w.prime, request{body: b, expect: expectCold})
	}
	hot := bodies[:(len(bodies)+warmHotShare-1)/warmHotShare]
	tail := bodies[len(hot):]
	for i := scaled(warmRequests, scale); i > 0; i-- {
		set := hot
		if len(tail) > 0 && g.rng.Intn(5) == 0 {
			set = tail
		}
		w.stream = append(w.stream, request{body: set[g.rng.Intn(len(set))], expect: expectWarm})
	}
	w.traced = scaled(tracedWarm, scale)
	return nil
}

func (w *workload) buildEdit(g *generator, scale float64) error {
	verdicts := 0
	for _, c := range g.blocks(scaled(editBases, scale)) {
		b, name, err := g.draw(c)
		if err != nil {
			return err
		}
		cb, err := checkBody(name, b, c.fam.hlo)
		if err != nil {
			return err
		}
		w.prime = append(w.prime, request{body: cb, expect: expectCold})
		verdicts += cb.Ops
		for _, site := range swapSites(b.Gs) {
			rb, err := recheckBody(name, b, c.fam.hlo, site)
			if err != nil {
				return err
			}
			w.stream = append(w.stream, request{body: rb, expect: expectRecheck})
			verdicts += rb.Cone
		}
	}
	// A fifth of the capacity is left for the cache's shards filling
	// unevenly.
	if limit := vcache.DefaultMaxEntries * 4 / 5; verdicts > limit {
		return fmt.Errorf("%d verdicts would be stored, the daemon keeps %d in memory", verdicts, limit)
	}
	g.rng.Shuffle(len(w.stream), func(i, j int) { w.stream[i], w.stream[j] = w.stream[j], w.stream[i] })
	w.traced = scaled(tracedEdit, scale)
	return nil
}

// buildFleet lays out three touches per body: the first on node i%3
// (cold: per-operator owner fetch-miss plus synchronous Put-forward),
// the second and third on the other two nodes (2/3 of the verdicts
// arrive by peer fetch). Tick t sends first(t), second(t-lag),
// third(t-2*lag), so the mix is one cold to two peer-warm requests
// from the first measured position on; the touches that fall before
// tick 0 are set-up.
func (w *workload) buildFleet(g *generator, scale float64) error {
	w.nodes = fleetNodes
	// Tests shrink the lag with the counts, but keep it long enough that
	// a touch has been answered before the next one of its body is sent.
	lag := min(fleetLagTicks, max(8, scaled(fleetLagTicks, scale)))
	bodies, err := g.checkBodies(2*lag + scaled(fleetBodies, scale))
	if err != nil {
		return err
	}
	w.prime, w.stream = fleetSchedule(bodies, lag)
	w.traced = scaled(tracedFleet, scale)
	return nil
}

// fleetSchedule returns the set-up touches and the measured stream for
// bodies under a lag of lag ticks. Body i is first touched at tick
// i-2*lag.
func fleetSchedule(bodies []*body, lag int) (prime, stream []request) {
	touch := func(i, k int) request {
		r := request{body: bodies[i], node: (i + k) % fleetNodes, expect: expectWarm}
		if k == 0 {
			r.expect = expectCold
		}
		return r
	}
	for tick := -2 * lag; tick < len(bodies)-2*lag; tick++ {
		for k := 0; k < fleetNodes; k++ {
			i := tick + 2*lag - k*lag
			if i < 0 || i >= len(bodies) {
				continue
			}
			if tick < 0 {
				prime = append(prime, touch(i, k))
			} else {
				stream = append(stream, touch(i, k))
			}
		}
	}
	return prime, stream
}

// subsample returns up to n elements of xs at an even stride.
func subsample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}
