package fuzz

import (
	"fmt"
	"sort"

	"entangle/internal/det"
)

// Config parameterizes a fuzz campaign.
type Config struct {
	// Seed feeds the master stream that draws plans and injections.
	Seed uint64
	// N is the number of correct compositions; each also gets one
	// injection per defect class with an available site.
	N int
	// Families restricts the sequential-model sources (nil = all).
	Families []Family
	// MaxDegree bounds the parallelism degree (minimum 2): plans draw
	// R 2, or R 2 and 4 from 4 up, so a bound above 4 acts as 4.
	MaxDegree int
	// Workers sets the checker's parallelism per case.
	Workers int
	// Shrink minimizes the first case of every new gap key and every
	// unsound case before recording it.
	Shrink bool
	// OnCase, when set, observes every evaluated result (progress
	// reporting in the CLI).
	OnCase func(*Result)
}

// ClassStats aggregates injection outcomes for one defect class.
type ClassStats struct {
	Injected     int `json:"injected"`
	Rediscovered int `json:"rediscovered"`
	LemmaGap     int `json:"lemma_gap"`
	Masked       int `json:"masked"`
	Unsound      int `json:"unsound"`
}

// Stats summarizes a campaign.
type Stats struct {
	Cases        int `json:"cases"` // total compositions evaluated
	Correct      int `json:"correct"`
	Injected     int `json:"injected"`
	Agree        int `json:"agree"`
	Rediscovered int `json:"rediscovered"`
	LemmaGaps    int `json:"lemma_gaps"`
	Masked       int `json:"masked"`
	Unsound      int `json:"unsound"`
	// GapKeys counts occurrences per unique lemma-gap fingerprint.
	GapKeys map[string]int `json:"gap_keys,omitempty"`
	// ByClass aggregates injection outcomes per defect class.
	ByClass map[DefectClass]*ClassStats `json:"by_class,omitempty"`
	// Repros holds minimized corpus cases: every unsound result and
	// the first (shrunk) witness of each gap key.
	Repros []CorpusCase `json:"repros,omitempty"`
}

// UniqueGaps is the number of distinct lemma-gap fingerprints seen.
func (s *Stats) UniqueGaps() int { return len(s.GapKeys) }

// SortedGapKeys returns the gap fingerprints in deterministic order.
func (s *Stats) SortedGapKeys() []string {
	keys := make([]string, 0, len(s.GapKeys))
	for k := range s.GapKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Run executes a fuzz campaign: N random correct compositions, each
// checked and numerically cross-checked, then re-composed once per
// defect class that has an injection site, with every disagreement
// between checker and ground truth classified (and, when configured,
// shrunk into a replayable repro).
func Run(cfg Config) (*Stats, error) {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	if cfg.MaxDegree < 2 {
		cfg.MaxDegree = 2
	}
	families := cfg.Families
	if len(families) == 0 {
		families = Families
	}
	master := det.NewRNG(cfg.Seed)
	stats := &Stats{GapKeys: map[string]int{}, ByClass: map[DefectClass]*ClassStats{}}
	for _, cl := range Classes {
		stats.ByClass[cl] = &ClassStats{}
	}
	for i := 0; i < cfg.N; i++ {
		p := RandomPlan(master, families, cfg.MaxDegree)
		cs, err := Compose(p, nil)
		if err != nil {
			return stats, fmt.Errorf("fuzz: case %d: %w", i, err)
		}
		res, err := Evaluate(cs, cfg.Workers)
		if err != nil {
			return stats, fmt.Errorf("fuzz: case %d: %w", i, err)
		}
		if err := record(cfg, stats, res); err != nil {
			return stats, err
		}
		// One injection per class with a site in this composition; the
		// site index is drawn from the correct build's census.
		for _, cl := range Classes {
			n := cs.Sites[cl]
			if n == 0 {
				continue
			}
			d := &Defect{Class: cl, Site: master.Intn(n)}
			ics, err := Compose(p, d)
			if err != nil {
				return stats, fmt.Errorf("fuzz: case %d inject %s: %w", i, d, err)
			}
			ires, err := Evaluate(ics, cfg.Workers)
			if err != nil {
				return stats, fmt.Errorf("fuzz: case %d inject %s: %w", i, d, err)
			}
			if err := record(cfg, stats, ires); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

func record(cfg Config, stats *Stats, res *Result) error {
	stats.Cases++
	injected := res.Case.Defect != nil
	if injected {
		stats.Injected++
	} else {
		stats.Correct++
	}
	var cls *ClassStats
	if injected {
		cls = stats.ByClass[res.Case.Defect.Class]
		cls.Injected++
	}
	switch res.Outcome {
	case OutcomeAgree:
		stats.Agree++
	case OutcomeRediscovered:
		stats.Rediscovered++
		cls.Rediscovered++
	case OutcomeMasked:
		stats.Masked++
		cls.Masked++
	case OutcomeLemmaGap:
		stats.LemmaGaps++
		if cls != nil {
			cls.LemmaGap++
		}
		first := stats.GapKeys[res.GapKey] == 0
		stats.GapKeys[res.GapKey]++
		if first {
			if err := addRepro(cfg, stats, res, "first witness of this lemma gap"); err != nil {
				return err
			}
		}
	case OutcomeUnsound:
		stats.Unsound++
		if cls != nil {
			cls.Unsound++
		}
		if err := addRepro(cfg, stats, res, "UNSOUND: checker and numeric ground truth disagree"); err != nil {
			return err
		}
	}
	if cfg.OnCase != nil {
		cfg.OnCase(res)
	}
	return nil
}

// addRepro records a disagreement, shrunk first when configured.
func addRepro(cfg Config, stats *Stats, res *Result, note string) error {
	final := res
	if cfg.Shrink {
		wantOutcome, wantGap := res.Outcome, res.GapKey
		_, shrunk, err := Shrink(res.Case.Plan, res.Case.Defect, cfg.Workers, func(r *Result) bool {
			return r.Outcome == wantOutcome && r.GapKey == wantGap
		})
		if err == nil && shrunk != nil {
			final = shrunk
		}
	}
	name := fmt.Sprintf("%s-%04d", final.Outcome, stats.Cases)
	if res.GapKey != "" {
		name = fmt.Sprintf("gap-%s", sanitize(res.GapKey))
	}
	cc, err := NewCorpusCase(name, final, note)
	if err != nil {
		return fmt.Errorf("fuzz: recording repro: %w", err)
	}
	stats.Repros = append(stats.Repros, cc)
	return nil
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Rediscover searches for a composition where the given defect class
// both applies and is disproved by the checker, then shrinks it to a
// minimal witness. It is the §6.2 rediscovery experiment in library
// form: every paper bug class must come back as a minimized Disproved
// case. maxTries bounds the plan search; a plan without a site or whose
// injection the checker misses is skipped, but a composition or
// evaluation error is returned.
func Rediscover(class DefectClass, seed uint64, workers, maxTries int) (*Result, error) {
	master := det.NewRNG(seed)
	tpl := rediscoverTemplate(class)
	for try := 0; try < maxTries; try++ {
		p := tpl
		p.Seed = master.Uint64()
		cs, err := Compose(p, nil)
		if err != nil {
			return nil, err
		}
		n := cs.Sites[class]
		if n == 0 {
			continue
		}
		d := &Defect{Class: class, Site: master.Intn(n)}
		ics, err := Compose(p, d)
		if err != nil {
			return nil, fmt.Errorf("fuzz: inject %s: %w", d, err)
		}
		res, err := Evaluate(ics, workers)
		if err != nil {
			return nil, fmt.Errorf("fuzz: inject %s: %w", d, err)
		}
		if res.Outcome != OutcomeRediscovered {
			continue
		}
		_, shrunk, err := Shrink(p, d, workers, func(r *Result) bool {
			return r.Outcome == OutcomeRediscovered
		})
		if err != nil {
			return res, nil // keep the unshrunk witness
		}
		return shrunk, nil
	}
	return nil, fmt.Errorf("fuzz: %s: no disproved witness in %d tries", class, maxTries)
}

// rediscoverTemplate biases the plan search toward compositions where
// the class has sites: the right block mix makes the probability per
// seed high instead of astronomical.
func rediscoverTemplate(class DefectClass) Plan {
	p := Plan{Family: FamilyChain, Degree: 2}
	switch class {
	case DefectRoPEOffset:
		p.Blocks = []int{blockRoPE}
	case DefectAuxLossScale:
		p.Head = headRouter
	case DefectAccumScale:
		p.Head = headMSE
	case DefectPadSlice, DefectGatherOrder, DefectMissingRegister, DefectDoubleReduce:
		p.Blocks = []int{blockFFN}
	case DefectMissingCollective, DefectScatterNoReduce:
		p.Blocks = []int{blockFFN, blockUnary}
	default:
		p.Blocks = []int{blockFFN}
	}
	return p
}
