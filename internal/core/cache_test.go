package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

func openCache(t *testing.T) *vcache.Cache {
	t.Helper()
	c, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheWarmRunIdentical is the cache's core contract: a warm run
// replays every verdict without saturating anything, and the resulting
// report is byte-identical to the cold run — same relations, same
// aggregate stats, same verdicts.
func TestCacheWarmRunIdentical(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	checker := NewChecker(Options{Registry: reg, Cache: cache})

	cold, err := checker.Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Cache.Hits != 0 {
		t.Fatalf("cold run hit the cache: %+v", cold.Cache)
	}
	if cold.Cache.Stores == 0 {
		t.Fatalf("cold run stored nothing: %+v", cold.Cache)
	}
	if cold.LiveStats.Iterations == 0 {
		t.Fatal("cold run recorded no live saturation work")
	}

	warm, err := checker.Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Cache.Misses != 0 || warm.Cache.ReplayRejects != 0 {
		t.Fatalf("warm run missed: %+v", warm.Cache)
	}
	if int(warm.Cache.Hits) != warm.OpsProcessed {
		t.Fatalf("warm hits %d, want one per operator (%d)", warm.Cache.Hits, warm.OpsProcessed)
	}
	// The acceptance signal: no operator was re-saturated.
	if warm.LiveStats.Iterations != 0 {
		t.Fatalf("warm run re-saturated: LiveStats %+v", warm.LiveStats)
	}
	assertReportsMatch(t, b, cold, warm)

	// The stored stats replay into the aggregate, so Stats matches a
	// cache-disabled run too.
	plain, err := NewChecker(Options{Registry: reg}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("cache-disabled: %v", err)
	}
	assertReportsMatch(t, b, plain, warm)
}

// TestCacheWarmAcrossWorkers replays a warm cache at several worker
// counts: the report must stay byte-identical — replay preserves the
// relation's insertion order, and stats merge in topo order.
func TestCacheWarmAcrossWorkers(t *testing.T) {
	b, err := models.SeedMoE(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	cold, err := NewChecker(Options{Registry: reg, Cache: cache, Workers: 1}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for _, workers := range []int{1, 4, 8} {
		warm, err := NewChecker(Options{Registry: reg, Cache: cache, Workers: workers}).Check(b.Gs, b.Gd, b.Ri)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if warm.LiveStats.Iterations != 0 {
			t.Fatalf("workers=%d re-saturated: %+v", workers, warm.LiveStats)
		}
		assertReportsMatch(t, b, cold, warm)
	}
}

// TestReplaySharesGdLeaves: four workers replaying a primed check race
// to fill the run's table of G_d leaves, and every replayed mapping
// still reads each G_d tensor through one *expr.Term. Under -race
// (verify.sh's race stage) it is the table's concurrency test.
func TestReplaySharesGdLeaves(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	if _, err := NewChecker(Options{Registry: reg, Cache: cache}).Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := NewChecker(Options{Registry: reg, Cache: cache, Workers: 4}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if int(warm.Cache.Hits) != warm.OpsProcessed {
		t.Fatalf("warm hits %d, want one per operator (%d)", warm.Cache.Hits, warm.OpsProcessed)
	}
	leaves := map[int]*expr.Term{}
	var walk func(m *expr.Term)
	walk = func(m *expr.Term) {
		if !m.IsLeaf() {
			for _, a := range m.Args {
				walk(a)
			}
			return
		}
		if !relation.IsGd(m.TID) {
			return
		}
		if first, ok := leaves[m.TID]; ok && first != m {
			t.Fatalf("G_d tensor %s is read through two leaf terms", m.Name)
		}
		leaves[m.TID] = m
	}
	// The operators' outputs are what replay decoded; the inputs' mappings
	// are the caller's relation.
	for _, n := range b.Gs.Nodes {
		for _, out := range n.Outputs {
			for _, m := range warm.FullRelation.Get(out) {
				walk(m)
			}
		}
	}
	if len(leaves) == 0 {
		t.Fatal("no replayed mapping reads a G_d tensor")
	}
}

// TestCacheDiskPersistence reopens the cache directory with a fresh
// Cache (cold memory): the warm run must be served from disk.
func TestCacheDiskPersistence(t *testing.T) {
	b, err := models.Llama(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c1, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := lemmas.Default()
	cold, err := NewChecker(Options{Registry: reg, Cache: c1}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	c2, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewChecker(Options{Registry: reg, Cache: c2}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.LiveStats.Iterations != 0 || warm.Cache.Misses != 0 {
		t.Fatalf("disk reopen not warm: live %+v cache %+v", warm.LiveStats, warm.Cache)
	}
	if c2.Stats().Snapshot().DiskHits == 0 {
		t.Fatal("expected disk hits on a fresh in-memory cache")
	}
	assertReportsMatch(t, b, cold, warm)
}

// TestCacheDisprovedReplay caches a Disproved verdict: a warm run on a
// buggy model must report the exact same failure without saturating.
func TestCacheDisprovedReplay(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	checker := NewChecker(Options{Registry: reg, Cache: cache, KeepGoing: true})

	coldRep, coldErr := checker.Check(b.Gs, b.Gd, b.Ri)
	if coldErr == nil {
		t.Fatal("buggy model verified")
	}
	warmRep, warmErr := checker.Check(b.Gs, b.Gd, b.Ri)
	if warmErr == nil {
		t.Fatal("buggy model verified on warm cache")
	}
	if warmErr.Error() != coldErr.Error() {
		t.Fatalf("warm error differs:\n--- cold ---\n%s\n--- warm ---\n%s", coldErr, warmErr)
	}
	var re *RefinementError
	if !errors.As(warmErr, &re) {
		t.Fatalf("warm error is not a RefinementError: %v", warmErr)
	}
	if got, want := warmRep.RenderFailures(), coldRep.RenderFailures(); got != want {
		t.Fatalf("failure renderings differ:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	if warmRep.Cache.Hits == 0 {
		t.Fatalf("warm buggy run never hit: %+v", warmRep.Cache)
	}
	if warmRep.LiveStats.Iterations != 0 {
		t.Fatalf("warm buggy run re-saturated: %+v", warmRep.LiveStats)
	}
}

// TestCacheAmbientInvalidation changes a budget-relevant option: the
// ambient digest must change, so nothing from the first run is reused.
func TestCacheAmbientInvalidation(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	if _, err := NewChecker(Options{Registry: reg, Cache: cache}).Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Options{Registry: reg, Cache: cache, BudgetEscalations: 2}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Hits != 0 {
		t.Fatalf("changed options must not reuse verdicts: %+v", rep.Cache)
	}
}

// TestCachePreOpOverrideBypasses ensures a PreOp budget override skips
// the cache in both directions: the overridden run neither poisons the
// store with small-budget verdicts nor consumes entries keyed by the
// base budget.
func TestCachePreOpOverrideBypasses(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)
	reg := lemmas.Default()
	override := baseBudget()
	checker := NewChecker(Options{Registry: reg, Cache: cache,
		PreOp: func(v *graph.Node) *egraph.SaturateOpts { return &override }})
	rep, err := checker.Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Hits != 0 || rep.Cache.Misses != 0 || rep.Cache.Stores != 0 {
		t.Fatalf("overridden operators touched the cache: %+v", rep.Cache)
	}
}

// TestCacheCorruptStoreIsSafe damages every on-disk entry: the next run
// must classify them all as misses and still produce a report identical
// to a cache-disabled run.
func TestCacheCorruptStoreIsSafe(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c1, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := lemmas.Default()
	if _, err := NewChecker(Options{Registry: reg, Cache: c1}).Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatal(err)
	}
	damaged := 0
	paths, err := vcache.SegmentPaths(dir)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		vcache.ScanSegment(data, func(k fingerprint.Hash, entry []byte) {
			entry = append([]byte(nil), entry...)
			entry[len(entry)/2] ^= 0x20
			out = vcache.AppendFrame(out, k, entry)
			damaged++
		})
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err != nil || damaged == 0 {
		t.Fatalf("damaging store: %v (%d records)", err, damaged)
	}
	// Fresh cache over the damaged directory: cold memory forces every
	// lookup through the corrupt records.
	c2, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Options{Registry: reg, Cache: c2}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("check over corrupt store: %v", err)
	}
	if rep.Cache.Hits != 0 {
		t.Fatalf("corrupt entries served: %+v", rep.Cache)
	}
	if rep.Cache.Corrupt == 0 {
		t.Fatalf("corruption not counted: %+v", rep.Cache)
	}
	plain, err := NewChecker(Options{Registry: reg}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsMatch(t, b, plain, rep)
}

// TestCacheUpgradeFromOlderFormats opens cache directories that earlier
// stores wrote, one file per verdict, with this one: testdata/evcache1
// (the EVCACHE1 files under v1/) and testdata/v2files (the EVCACHE2
// files under v2/), each what checks of GPT TP2 and its Bug-7 variant
// left behind. The old files are never read: every probe is a clean
// miss (none counted corrupt), every operator is re-checked, the reports
// are byte-identical to checks over an empty directory, the new
// verdicts are records of a segment under the same keys the old file
// names spell, and the old tree is left untouched.
func TestCacheUpgradeFromOlderFormats(t *testing.T) {
	good, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	// files maps each file under root to its bytes, by relative path.
	files := func(root string) map[string]string {
		out := map[string]string{}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			rel, _ := filepath.Rel(root, path)
			out[rel] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	run := func(dir string) (string, vcache.StatsSnapshot) {
		c, err := vcache.Open(vcache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg := lemmas.Default()
		rep, err := NewChecker(Options{Registry: reg, Cache: c}).Check(good.Gs, good.Gd, good.Ri)
		out := goldenReport(rep, err, good.Gs)
		rep, err = NewChecker(Options{Registry: reg, Cache: c, KeepGoing: true}).Check(bad.Gs, bad.Gd, bad.Ri)
		return out + goldenReport(rep, err, bad.Gs), c.Stats().Snapshot()
	}
	fresh, _ := run(t.TempDir())
	for _, tree := range []string{"testdata/evcache1/v1", "testdata/v2files/v2"} {
		old := files(tree)
		if len(old) == 0 {
			t.Fatalf("%s holds no verdict", tree)
		}
		dir := t.TempDir()
		sub := filepath.Base(tree)
		for rel, data := range old {
			path := filepath.Join(dir, sub, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		upgraded, st := run(dir)
		if upgraded != fresh {
			t.Errorf("reports over %s differ from reports over an empty directory:\n--- empty ---\n%s\n--- %s ---\n%s", tree, fresh, tree, upgraded)
		}
		if st.Hits != 0 || st.Corrupt != 0 || st.Stores != int64(len(old)) {
			t.Errorf("%s: cache counters %+v: want no hit, nothing corrupt, and the %d old verdicts stored anew", tree, st, len(old))
		}
		if now := files(filepath.Join(dir, sub)); !reflect.DeepEqual(now, old) {
			t.Errorf("the %s/ tree changed", sub)
		}
		written := map[string]bool{}
		paths, err := vcache.SegmentPaths(dir)
		if err != nil || len(paths) != 1 {
			t.Fatalf("%s: segments %v (err %v), want one", tree, paths, err)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		vcache.ScanSegment(data, func(k fingerprint.Hash, _ []byte) { written[k.Hex()[:2]+"/"+k.Hex()] = true })
		for rel := range old {
			if !written[filepath.ToSlash(rel)] {
				t.Errorf("%s: no record for the old entry %s", tree, rel)
			}
		}
		if len(written) != len(old) {
			t.Errorf("%s: %d verdicts recorded, %d in the old tree", tree, len(written), len(old))
		}
	}
}

// assertReportsMatch compares the schedule- and cache-invariant parts
// of two successful reports byte for byte.
func assertReportsMatch(t *testing.T, b *models.Built, want, got *Report) {
	t.Helper()
	if gw, ww := got.OutputRelation.Render(b.Gs), want.OutputRelation.Render(b.Gs); gw != ww {
		t.Errorf("output relations differ:\n--- want ---\n%s\n--- got ---\n%s", ww, gw)
	}
	if gw, ww := got.FullRelation.Render(b.Gs), want.FullRelation.Render(b.Gs); gw != ww {
		t.Errorf("full relations differ:\n--- want ---\n%s\n--- got ---\n%s", ww, gw)
	}
	if got.OpsProcessed != want.OpsProcessed {
		t.Errorf("OpsProcessed %d want %d", got.OpsProcessed, want.OpsProcessed)
	}
	if got.Stats.Iterations != want.Stats.Iterations ||
		got.Stats.Runs != want.Stats.Runs ||
		got.Stats.Saturated != want.Stats.Saturated {
		t.Errorf("aggregate stats differ: want %+v got %+v", want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(got.Stats.Applications, want.Stats.Applications) {
		t.Errorf("lemma application counts differ:\n  want: %v\n  got:  %v",
			statLines(want.Stats.Applications), statLines(got.Stats.Applications))
	}
	if len(got.Verdicts) != len(want.Verdicts) {
		t.Fatalf("verdict counts differ: want %d got %d", len(want.Verdicts), len(got.Verdicts))
	}
	for i := range want.Verdicts {
		if got.Verdicts[i].Kind != want.Verdicts[i].Kind ||
			got.Verdicts[i].Escalations != want.Verdicts[i].Escalations {
			t.Errorf("verdict %d differs: want %+v got %+v", i, want.Verdicts[i], got.Verdicts[i])
		}
	}
}
