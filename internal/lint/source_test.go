package lint

import (
	"testing"
)

// TestSourceBadCorpus runs the Layer-3 analyzer over the hazardous
// corpus in testdata/src/bad and pins the exact findings. The corpus
// also contains the three shapes that must NOT fire: a sorted
// collect, a //lint:ignore'd range, and a range over a slice.
func TestSourceBadCorpus(t *testing.T) {
	ds, err := Source("testdata/src/bad")
	if err != nil {
		t.Fatal(err)
	}
	findDiag(t, ds, CheckSourceMapRangeMutation, "egraphStub.unionInMapOrder")
	findDiag(t, ds, CheckSourceMapRangeMutation, "egraphStub.insertInMapOrder")
	findDiag(t, ds, CheckSourceMapRangeAppend, "egraphStub.collectUnsorted")
	for _, d := range ds {
		switch d.Subject {
		case "egraphStub.collectSorted", "egraphStub.suppressed", "egraphStub.overSlice":
			t.Errorf("false positive on %s: %s", d.Subject, d)
		}
	}
	checkGolden(t, "bad-source-golden.txt", ds)
}

func TestSourceMissingDir(t *testing.T) {
	if _, err := Source("testdata/no-such-dir"); err == nil {
		t.Fatal("Source on a missing directory must return an error")
	}
}
