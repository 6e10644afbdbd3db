// Package jsonspan reads JSON the way the daemon's front end needs it
// read: one forward pass over a byte slice that validates the syntax
// and hands out spans of that slice — no reflection, no token values,
// no copy of anything it does not have to unquote. The request
// envelope (internal/server) and the graph interchange format
// (internal/graph) are both decoded through it.
//
// The scanner accepts exactly the texts encoding/json accepts (RFC
// 8259 values, the same four whitespace bytes, raw control bytes in
// strings refused, invalid UTF-8 let through, at most 10000 open
// containers), and its typed reads follow encoding/json's rules for a
// struct target: a null where a string, object or array is expected is
// not an error and reads as "absent", any other mismatch is. What it
// does not share is encoding/json's error order — a mismatch is
// reported where it is met, not after the rest of the text has been
// checked — and the wording of its errors.
package jsonspan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's bound on open containers.
const maxDepth = 10000

// Scanner is a cursor over one JSON text. Every read skips leading
// whitespace and consumes exactly one value; the function handed to
// Object or Array must do one read per call.
type Scanner struct {
	data  []byte
	pos   int
	depth int // containers open around pos
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// SyntaxError reports text that is not JSON.
type SyntaxError struct {
	Msg    string
	Offset int
}

func (e *SyntaxError) Error() string { return e.Msg }

// TypeError reports a well-formed value of the wrong kind.
type TypeError struct {
	Have, Want string
	Offset     int
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("json: %s at offset %d where %s is expected", e.Have, e.Offset, e.Want)
}

func (s *Scanner) eof() error {
	return &SyntaxError{"unexpected end of JSON input", len(s.data)}
}

// bad reports the byte at i as out of place.
func (s *Scanner) bad(i int, context string) error {
	return &SyntaxError{fmt.Sprintf("invalid character %q %s", rune(s.data[i]), context), i}
}

// next skips whitespace and returns the byte the cursor rests on; ok
// is false at the end of the text.
func (s *Scanner) next() (c byte, ok bool) {
	for ; s.pos < len(s.data); s.pos++ {
		switch c = s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c, true
		}
	}
	return 0, false
}

// End reports anything but whitespace after the value read.
func (s *Scanner) End() error {
	if _, more := s.next(); more {
		return s.bad(s.pos, "after top-level value")
	}
	return nil
}

// Skip validates and passes over one value of any kind.
func (s *Scanner) Skip() error {
	c, ok := s.next()
	if !ok {
		return s.eof()
	}
	switch {
	case c == '{':
		return s.members(nil)
	case c == '[':
		return s.elements(s.Skip)
	case c == '"':
		_, _, err := s.literalString()
		return err
	case c == 't':
		return s.word("true")
	case c == 'f':
		return s.word("false")
	case c == 'n':
		return s.word("null")
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	}
	return s.bad(s.pos, "looking for beginning of value")
}

// Span validates one value of any kind and returns its bytes, a
// sub-slice of the scanner's data.
func (s *Scanner) Span() ([]byte, error) { return s.Try(s.Skip) }

// Try reads the next value with read, which must consume exactly that
// value, and returns its bytes, a sub-slice of the scanner's data. When
// read fails the cursor is put back where the value starts, as if Try
// had not been called, so the caller can read the value another way.
func (s *Scanner) Try(read func() error) ([]byte, error) {
	s.next()
	start, depth := s.pos, s.depth
	if err := read(); err != nil {
		s.pos, s.depth = start, depth
		return nil, err
	}
	return s.data[start:s.pos:s.pos], nil
}

// Peek returns the byte the next value starts with, 0 at the end of the
// text, without reading the value.
func (s *Scanner) Peek() byte {
	c, _ := s.next()
	return c
}

// Data returns the text the scanner reads; Literal's offsets index it.
func (s *Scanner) Data() []byte { return s.data }

// expect rests the cursor on a value that starts with open. A null is
// consumed instead (null = true); any other kind is a TypeError.
func (s *Scanner) expect(open byte, want string) (null bool, err error) {
	c, ok := s.next()
	if !ok {
		return false, s.eof()
	}
	have := "number"
	switch {
	case c == open:
		return false, nil
	case c == 'n':
		return true, s.word("null")
	case c == '{':
		have = "object"
	case c == '[':
		have = "array"
	case c == '"':
		have = "string"
	case c == 't' || c == 'f':
		have = "bool"
	case c == '-' || '0' <= c && c <= '9':
	default:
		return false, s.bad(s.pos, "looking for beginning of value")
	}
	return false, &TypeError{Have: have, Want: want, Offset: s.pos}
}

// Literal reads a string value without unquoting or copying it: the
// literal's text between its quotes is Data()[lo:hi], and plain reports
// that it has no escape and no byte outside ASCII, so that text is the
// value; otherwise Unquote makes the value of it. A null reads as
// ok = false.
func (s *Scanner) Literal() (lo, hi int, plain, ok bool, err error) {
	if null, err := s.expect('"', "a string"); null || err != nil {
		return 0, 0, false, false, err
	}
	lo = s.pos + 1
	if _, plain, err = s.literalString(); err != nil {
		return 0, 0, false, false, err
	}
	return lo, s.pos - 1, plain, true, nil
}

// Null consumes the next value when it is null, reporting whether it
// was; any other value is left for the next read.
func (s *Scanner) Null() (bool, error) {
	if c, ok := s.next(); !ok || c != 'n' {
		return false, nil
	}
	return true, s.word("null")
}

// Object reads an object, calling member with each member's unquoted
// name, in order, the cursor before its value. A null is an object
// without members.
func (s *Scanner) Object(member func(name []byte) error) error {
	if null, err := s.expect('{', "an object"); null || err != nil {
		return err
	}
	return s.members(member)
}

// Array reads an array, calling elem with the cursor before each
// element. A null is an array without elements.
func (s *Scanner) Array(elem func() error) error {
	if null, err := s.expect('[', "an array"); null || err != nil {
		return err
	}
	return s.elements(elem)
}

// Field returns the index of the name that key spells, as encoding/json
// matches a member to a struct field: exactly, or else under Unicode
// case folding; -1 when it spells none.
func Field(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// enter steps over the byte that opens a container.
func (s *Scanner) enter() error {
	if s.depth++; s.depth > maxDepth {
		return &SyntaxError{"exceeded max depth", s.pos}
	}
	s.pos++
	return nil
}

// members reads the object the cursor rests on. A nil member skips
// every value.
func (s *Scanner) members(member func(name []byte) error) error {
	if err := s.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		c, ok := s.next()
		switch {
		case !ok:
			return s.eof()
		case c == '}' && first:
			s.pos++
			s.depth--
			return nil
		case c != '"':
			return s.bad(s.pos, "looking for beginning of object key string")
		}
		var name []byte
		var err error
		if member == nil {
			_, _, err = s.literalString()
		} else {
			name, err = s.unquoted()
		}
		if err != nil {
			return err
		}
		if c, ok = s.next(); !ok {
			return s.eof()
		} else if c != ':' {
			return s.bad(s.pos, "after object key")
		}
		s.pos++
		if member == nil {
			err = s.Skip()
		} else {
			err = member(name)
		}
		if err != nil {
			return err
		}
		switch c, ok = s.next(); {
		case !ok:
			return s.eof()
		case c == '}':
			s.pos++
			s.depth--
			return nil
		case c != ',':
			return s.bad(s.pos, "after object key:value pair")
		}
		s.pos++
	}
}

// elements reads the array the cursor rests on.
func (s *Scanner) elements(elem func() error) error {
	if err := s.enter(); err != nil {
		return err
	}
	if c, ok := s.next(); ok && c == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch c, ok := s.next(); {
		case !ok:
			return s.eof()
		case c == ']':
			s.pos++
			s.depth--
			return nil
		case c != ',':
			return s.bad(s.pos, "after array element")
		}
		s.pos++
	}
}

// unquoted reads the string literal the cursor rests on and returns
// its value.
func (s *Scanner) unquoted() ([]byte, error) {
	lit, plain, err := s.literalString()
	if err != nil {
		return nil, err
	}
	body := lit[1 : len(lit)-1 : len(lit)-1]
	if plain {
		return body, nil
	}
	var v bytes.Buffer
	v.Grow(len(body))
	unquote(&v, body)
	return v.Bytes(), nil
}

// Text reads a string value into a string of its own: one copy, even
// when the literal has escapes to resolve. A null reads as ok = false.
func (s *Scanner) Text() (val string, ok bool, err error) {
	lo, hi, plain, ok, err := s.Literal()
	if !ok || plain {
		return string(s.data[lo:hi]), ok, err
	}
	var v strings.Builder
	v.Grow(hi - lo)
	unquote(&v, s.data[lo:hi])
	return v.String(), true, nil
}

// writer is what unquote writes to: a bytes.Buffer or strings.Builder.
type writer interface {
	Write([]byte) (int, error)
	WriteByte(byte) error
	WriteRune(rune) (int, error)
}

// Unquote writes the value of a literal's body, the text Literal
// reported, as encoding/json reads it: escapes resolved, and an escaped
// lone surrogate and every byte of invalid UTF-8 read as U+FFFD.
func Unquote(w *bytes.Buffer, body []byte) { unquote(w, body) }

// unquote is Unquote to either writer.
func unquote(w writer, body []byte) {
	for len(body) > 0 {
		r := 0
		for r < len(body) {
			// A body holds no quote and no control byte, so the first
			// special byte of a word is a backslash or outside ASCII.
			if r+8 <= len(body) {
				m := special(binary.LittleEndian.Uint64(body[r:]))
				if m == 0 {
					r += 8
					continue
				}
				r += bits.TrailingZeros64(m) / 8
			}
			if c := body[r]; c == '\\' {
				break
			} else if c < utf8.RuneSelf {
				r++
				continue
			}
			rr, size := utf8.DecodeRune(body[r:])
			if rr == utf8.RuneError && size == 1 {
				break
			}
			r += size
		}
		w.Write(body[:r])
		switch body = body[r:]; {
		case len(body) == 0:
		case body[0] != '\\':
			w.WriteRune(utf8.RuneError)
			body = body[1:]
		case body[1] == 'u':
			rr := hex4(body[2:])
			body = body[6:]
			if utf16.IsSurrogate(rr) && len(body) >= 6 && body[0] == '\\' && body[1] == 'u' {
				if pair := utf16.DecodeRune(rr, hex4(body[2:])); pair != utf8.RuneError {
					rr = pair
					body = body[6:]
				}
			}
			if utf16.IsSurrogate(rr) {
				rr = utf8.RuneError
			}
			w.WriteRune(rr)
		default:
			w.WriteByte(escaped[body[1]])
			body = body[2:]
		}
	}
}

// escaped maps the byte after a backslash to the byte it stands for.
var escaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hexadecimal digits literalString checked.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// literalString passes over the string literal the cursor rests on and
// returns it, quotes included; plain means no escape and no byte
// outside ASCII, so the value is the text between the quotes.
//
// The bytes a literal holds most of — printable ASCII other than a
// quote or a backslash — are passed over a word at a time (see
// special); the careful loop below sees only the bytes that end such a
// run and the last few of the text, so a long literal full of escapes
// (an HLO module's \n) costs no more per byte than a plain one.
func (s *Scanner) literalString() (lit []byte, plain bool, err error) {
	plain = true
	for i := s.pos + 1; ; i++ {
		for i+8 <= len(s.data) {
			if m := special(binary.LittleEndian.Uint64(s.data[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
			i += 8
		}
		if i >= len(s.data) {
			return nil, false, s.eof()
		}
		switch c := s.data[i]; {
		case c == '"':
			lit = s.data[s.pos : i+1]
			s.pos = i + 1
			return lit, plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(s.data) {
				return nil, false, s.eof()
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := i + 4; i < end; {
					if i++; i >= len(s.data) {
						return nil, false, s.eof()
					}
					if c := s.data[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
						return nil, false, s.bad(i, `in \u hexadecimal character escape`)
					}
				}
			default:
				return nil, false, s.bad(i, "in string escape code")
			}
		case c < ' ':
			return nil, false, s.bad(i, "in string literal")
		case c >= 0x80:
			plain = false
		}
	}
}

// Word-at-a-time masks: a one and a high bit in every byte of a word.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// special returns a mask of the bytes of v, a little-endian word of a
// literal, that end a plain run: a quote, a backslash, a control byte
// or a byte outside ASCII. Only the lowest set bit is exact, and it is
// all a caller reads: it takes the first special byte at
// TrailingZeros64(mask)/8 and looks at the rest of the word again.
//
// Each test subtracts a constant from every byte and reads the high
// bits: x-1 has its high bit set for x = 0 (x a byte of v xor '"' or
// xor '\\'), v-0x20 for v < 0x20, and v itself for v ≥ 0x80. A printable
// ASCII byte other than the two passes every test without a borrow, so
// nothing below the first special byte is marked; the borrow a special
// byte sends up may mark the bytes above it, and the usual &^x that
// would clear such marks is left out, since only the lowest one counts
// and every byte it would clear is outside ASCII, which v marks anyway.
func special(v uint64) uint64 {
	quote, backslash := v^(ones*'"'), v^(ones*'\\')
	return ((quote - ones) | (backslash - ones) | (v - ones*' ') | v) & highs
}

// word passes over the literal name the cursor rests on the first byte
// of.
func (s *Scanner) word(name string) error {
	for i := 1; i < len(name); i++ {
		if s.pos+i >= len(s.data) {
			return s.eof()
		}
		if s.data[s.pos+i] != name[i] {
			return s.bad(s.pos+i, fmt.Sprintf("in literal %s (expecting %q)", name, name[i]))
		}
	}
	s.pos += len(name)
	return nil
}

// number passes over the number the cursor rests on.
func (s *Scanner) number() error {
	i := s.pos
	digits := func(context string) error {
		start := i
		for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
			i++
		}
		switch {
		case i > start:
			return nil
		case i >= len(s.data):
			return s.eof()
		}
		return s.bad(i, context)
	}
	if s.data[i] == '-' {
		i++
	}
	if i < len(s.data) && s.data[i] == '0' {
		i++
	} else if err := digits("in numeric literal"); err != nil {
		return err
	}
	if i < len(s.data) && s.data[i] == '.' {
		i++
		if err := digits("after decimal point in numeric literal"); err != nil {
			return err
		}
	}
	if i < len(s.data) && (s.data[i] == 'e' || s.data[i] == 'E') {
		if i++; i < len(s.data) && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		if err := digits("in exponent of numeric literal"); err != nil {
			return err
		}
	}
	s.pos = i
	return nil
}
