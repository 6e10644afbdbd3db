package jsonspan

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestSkipAcceptsWhatJSONDoes holds the scanner's syntax to
// encoding/json's on a table of texts, and on every prefix and every
// one-byte rewrite of a document that uses all of the grammar.
func TestSkipAcceptsWhatJSONDoes(t *testing.T) {
	const doc = ` {"a": [1, -0.5e+3, 0, 1E9, true, false, null, "x\né😀\/", "é", {}], "": {"b": []}} `
	texts := []string{
		``, ` `, `01`, `-`, `1.`, `1e`, `.5`, `+1`, `-01`, `1e+`, `tru`, `nul`, `nulll`, `"`, `"\x"`, `"\u12"`, `"\u12g4"`,
		"\"a\tb\"", "\"\x7f\"", "\"\xff\"", `[1,]`, `[,1]`, `{"a":1,}`, `{"a"}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `[] []`, `{}x`,
		"\ufeff{}", "[\v1]", `"\ud800"`, `1 `, "\n[\r\n]\t",
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10001) + "1" + strings.Repeat("}", 10001),
	}
	for i := 0; i <= len(doc); i++ {
		texts = append(texts, doc[:i])
	}
	for i := 0; i < len(doc); i++ {
		for _, c := range []byte{'"', '\\', ',', ':', '{', ']', '0', 'e', ' ', 0x01, 0x80} {
			texts = append(texts, doc[:i]+string(c)+doc[i+1:])
		}
	}
	for _, text := range texts {
		s := New([]byte(text))
		err := s.Skip()
		if err == nil {
			err = s.End()
		}
		if want := json.Valid([]byte(text)); (err == nil) != want {
			shown := text
			if len(shown) > 80 {
				shown = shown[:80] + "…"
			}
			t.Errorf("%q: scanner says %v, json.Valid says %v", shown, err, want)
		}
	}
}

// TestTypedReads: what each typed read makes of each kind of value.
func TestTypedReads(t *testing.T) {
	s := New([]byte(`{"plain": "a b", "escaped": "é\"", "null": null, "list": [null, "x"], "none": null, "skipped": {"deep": [1]}}`))
	var got []string
	err := s.Object(func(name []byte) error {
		switch Field(name, "plain", "escaped", "null", "LIST", "none") {
		case 0, 1, 2:
			v, ok, err := s.String()
			got = append(got, string(name)+"="+string(v)+map[bool]string{true: "", false: "(absent)"}[ok])
			return err
		case 3:
			return s.Array(func() error {
				v, ok, err := s.String()
				got = append(got, "elem="+string(v)+map[bool]string{true: "", false: "(absent)"}[ok])
				return err
			})
		case 4:
			return s.Object(func([]byte) error { t.Fatal("a null object has no members"); return nil })
		}
		raw, err := s.Span()
		got = append(got, string(name)+" spans "+string(raw))
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		t.Fatal(err)
	}
	want := `plain=a b|escaped=é"|null=(absent)|elem=(absent)|elem=x|skipped spans {"deep": [1]}`
	if strings.Join(got, "|") != want {
		t.Fatalf("read\n  %s\nwant\n  %s", strings.Join(got, "|"), want)
	}
	for _, mistyped := range []string{`1`, `"s"`, `[]`, `true`} {
		var typeErr *TypeError
		if err := New([]byte(mistyped)).Object(nil); !errors.As(err, &typeErr) {
			t.Errorf("Object over %s: %v, want a TypeError", mistyped, err)
		}
	}
	if Field([]byte("ſHAPE"), "name", "shape") != 1 || Field([]byte("shapes"), "name", "shape") != -1 {
		t.Error("Field does not fold as encoding/json does")
	}
}

// TestStringsReadAsJSONDoes: String and Text unquote every literal the
// way json.Unmarshal into a string does — escapes, surrogate pairs and
// lone halves, invalid UTF-8 — and Text's string is the same value.
func TestStringsReadAsJSONDoes(t *testing.T) {
	for _, lit := range []string{
		`""`, `"plain"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é😀"`, `"é€"`, `"😀"`, `"\ud83d"`, `"\ud83dx"`,
		`"\ude00\ud83d"`, `"\ud83dA"`, `"\ud83d😀"`, "\"\xff\xfe\"", "\"a\xed\xa0\x80b\"", "\"\xe2\x82\"",
		`"line one\nline two\n` + strings.Repeat(`%x = f32[2] parameter(0)\n`, 50) + `"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%q: %v", lit, err)
		}
		v, ok, err := New([]byte(lit)).String()
		if err != nil || !ok || string(v) != want {
			t.Errorf("String %q = %q, %v, %v; want %q", lit, v, ok, err, want)
		}
		text, ok, err := New([]byte(lit)).Text()
		if err != nil || !ok || text != want {
			t.Errorf("Text %q = %q, %v, %v; want %q", lit, text, ok, err, want)
		}
	}
	if null, err := New([]byte(` null`)).Null(); !null || err != nil {
		t.Errorf("Null over null: %v, %v", null, err)
	}
	if null, err := New([]byte(`"null"`)).Null(); null || err != nil {
		t.Errorf(`Null over "null": %v, %v`, null, err)
	}
}
