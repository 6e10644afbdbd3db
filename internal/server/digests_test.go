package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"entangle/internal/core"
	"entangle/internal/fingerprint"
	"entangle/internal/hlo"
	"entangle/internal/jsonspan"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// filled counts the table's occupied slots.
func (t *digestTable) filled() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.slots {
		if t.slots[i] != (digestSlot{}) {
			n++
		}
	}
	return n
}

// digestOf reads raw in place and builds it through the table and checks the digest it
// hands out against the decoded graph's own.
func digestOf(t *testing.T, tab *digestTable, raw []byte, format string) fingerprint.Hash {
	t.Helper()
	var m graphMember
	var span json.RawMessage
	if err := m.read(jsonspan.New(raw), &span); err != nil {
		t.Fatal(err)
	}
	gd, digest, err := tab.decodeGd(&m, span, format)
	if err != nil {
		t.Fatal(err)
	}
	if want := fingerprint.GraphDigest(gd); digest != want {
		t.Fatalf("table digest %s, the decoded graph's %s", digest.Hex(), want.Hex())
	}
	return digest
}

// TestDigestTableSlots: a slot is one exact G_d span in one format, so
// a digest is only ever handed out for the bytes it was derived from.
// One G_d spelled as JSON and as HLO takes two slots with one digest; a
// G_d one extent away takes its own slot and digest; one that differs
// only in a tensor name takes its own slot under the same digest; a G_d
// that does not decode takes none.
func TestDigestTableSlots(t *testing.T) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := hlo.Print(&text, gpt.Gd); err != nil {
		t.Fatal(err)
	}
	asHLO, err := json.Marshal(text.String())
	if err != nil {
		t.Fatal(err)
	}
	var tab digestTable
	asJSON := graphJSON(t, gpt.Gd)
	fromJSON := digestOf(t, &tab, asJSON, "")
	fromHLO := digestOf(t, &tab, asHLO, "hlo")
	if fromJSON != fromHLO || tab.filled() != 2 {
		t.Fatalf("JSON and HLO spellings: digests %s / %s in %d slots, want one digest in 2",
			fromJSON.Hex(), fromHLO.Hex(), tab.filled())
	}
	if again := digestOf(t, &tab, asJSON, ""); again != fromJSON || tab.filled() != 2 {
		t.Fatalf("a repeated span moved its digest or took a slot (%d filled)", tab.filled())
	}

	small := func(name, extent string) []byte {
		return fmt.Appendf(nil, `{"name":"Gd","inputs":[{"name":%q,"shape":["4",%q]}],
			"nodes":[{"op":"identity","label":"n","inputs":[%[1]q],"outputs":["o"]}],"outputs":["o"]}`, name, extent)
	}
	tab = digestTable{}
	base := digestOf(t, &tab, small("a", "8"), "")
	if wider := digestOf(t, &tab, small("a", "16"), ""); wider == base || tab.filled() != 2 {
		t.Fatalf("one extent apart: same digest %v, %d slots filled, want 2", wider == base, tab.filled())
	}
	if renamed := digestOf(t, &tab, small("b", "8"), ""); renamed != base || tab.filled() != 3 {
		t.Fatalf("one tensor name apart: same digest %v, %d slots filled, want 3", renamed == base, tab.filled())
	}
	if _, _, err := tab.decodeGd(new(graphMember), []byte(`{"name":"Gd","inputs":[`), ""); err == nil || tab.filled() != 3 {
		t.Fatalf("a G_d that does not decode: error %v, %d slots filled, want 3", err, tab.filled())
	}
}

// TestRecheckDerivesOneDigest: a /v1/recheck batch hands its one G_d
// digest to the base pass and to every candidate, so a batch of four on
// an empty table fills exactly one slot.
func TestRecheckDerivesOneDigest(t *testing.T) {
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Options: core.Options{Cache: vc}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	base, swapped := graphJSON(t, recheckGs(t, false, "gelu")), graphJSON(t, recheckGs(t, true, "gelu"))
	status, rr := postRecheck(t, ts, map[string]any{
		"base":       base,
		"candidates": []json.RawMessage{swapped, base, swapped, base},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	})
	if status != http.StatusOK || len(rr.Candidates) != 4 {
		t.Fatalf("status %d, response %+v", status, rr)
	}
	if n := srv.gds.filled(); n != 1 {
		t.Fatalf("a recheck of four candidates filled %d digest slots, want 1", n)
	}
}
