package jsonspan

import (
	"bytes"
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

// value reads a string value through Literal, as graph.Index does: the
// literal's text when it is plain, what Unquote makes of it otherwise.
func value(s *Scanner) (string, bool, error) {
	lo, hi, plain, ok, err := s.Literal()
	if plain || !ok {
		return string(s.Data()[lo:hi]), ok, err
	}
	var v bytes.Buffer
	Unquote(&v, s.Data()[lo:hi])
	return v.String(), ok, err
}

// TestTypedReads: what each typed read makes of each kind of value.
func TestTypedReads(t *testing.T) {
	s := New([]byte(`{"plain": "a b", "escaped": "é\"", "null": null, "list": [null, "x"], "none": null, "skipped": {"deep": [1]}}`))
	var got []string
	err := s.Object(func(name []byte) error {
		switch Field(name, "plain", "escaped", "null", "LIST", "none") {
		case 0, 1, 2:
			v, ok, err := value(s)
			got = append(got, string(name)+"="+v+map[bool]string{true: "", false: "(absent)"}[ok])
			return err
		case 3:
			return s.Array(func() error {
				v, ok, err := value(s)
				got = append(got, "elem="+v+map[bool]string{true: "", false: "(absent)"}[ok])
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

// TestStringsReadAsJSONDoes: Literal with Unquote and Text read every
// literal the way json.Unmarshal into a string does — escapes, surrogate
// pairs and lone halves, invalid UTF-8.
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
		v, ok, err := value(New([]byte(lit)))
		if err != nil || !ok || v != want {
			t.Errorf("Literal %q = %q, %v, %v; want %q", lit, v, ok, err, want)
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

// agreeOnString holds Skip, Text and Literal to encoding/json on one
// text: the same verdict, and when the text is a string, the same
// value.
func agreeOnString(t *testing.T, text []byte) {
	t.Helper()
	s := New(text)
	err := s.Skip()
	if err == nil {
		err = s.End()
	}
	if valid := json.Valid(text); (err == nil) != valid {
		t.Fatalf("%q: Skip says %v, json.Valid says %v", text, err, valid)
	}
	var want string
	refErr := json.Unmarshal(text, &want)
	for name, read := range map[string]func(s *Scanner) (string, bool, error){"Text": (*Scanner).Text, "Literal": value} {
		s := New(text)
		got, ok, err := read(s)
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: %s says %v, json.Unmarshal says %v", text, name, err, refErr)
		}
		if err == nil && ok && got != want {
			t.Fatalf("%q: %s reads %q, json.Unmarshal %q", text, name, got, want)
		}
	}
}

// TestScannerAtWordBoundaries: literals are passed over a word at a
// time, so every byte that ends a plain run is placed at every offset
// of strings long enough to span three words, with the literal at the
// very end of the data, one byte short of it, and inside more text.
func TestScannerAtWordBoundaries(t *testing.T) {
	specials := []string{`"`, `\`, "\x01", "\x1f", " ", "\x7f", "\x80", "\xff", "é", "😀",
		`\"`, `\\`, `\n`, `é`, `😀`, `\ud83d`, `\u12`, `\uzzzz`}
	for _, sp := range specials {
		for n := 0; n <= 24; n++ {
			for at := 0; at <= min(16, n); at++ {
				body := strings.Repeat("a", at) + sp + strings.Repeat("b", n-at)
				lit := `"` + body + `"`
				for _, text := range []string{lit, lit[:len(lit)-1], " " + lit + " ", `["x",` + lit + `]`} {
					agreeOnString(t, []byte(text))
				}
			}
		}
	}
}

// FuzzScanner holds the scanner to encoding/json on any bytes at all:
// Skip to json.Valid, and Text and Literal to json.Unmarshal into a
// string.
func FuzzScanner(f *testing.F) {
	for _, seed := range []string{`""`, `"abcdefghijklmnopq"`, `"abcdefg\"hijkl"`, `"abcdefghéijklmnop"`,
		"\"abcdefg\xffhijk\"", "\"abcdefgh\x1fijk\"", `"😀😀😀😀"`, `null`, `[1,"x"]`, `"abcdefgh`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(agreeOnString)
}
