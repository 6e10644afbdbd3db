package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func readFrames(data []byte) ([]Frame, error) {
	fr := NewFrameReader(bytes.NewReader(data))
	var frames []Frame
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

func TestFrameCodec(t *testing.T) {
	k1, k2 := testKey(1), testKey(2)
	withLen := func(key []byte, n uint32, data []byte) []byte {
		out := append(append([]byte(nil), key...), frameData)
		out = binary.BigEndian.AppendUint32(out, n)
		return append(out, data...)
	}
	good := EncodeFrames([]Frame{{Key: k1, Data: []byte("one")}, {Key: k2}})

	for _, tc := range []struct {
		name      string
		wire      []byte
		want      []Frame // frames read before the end or the error
		malformed bool
	}{
		{name: "empty batch", wire: nil},
		{name: "data and bare", wire: good, want: []Frame{{Key: k1, Data: []byte("one")}, {Key: k2}}},
		{name: "zero-length data is not bare", wire: withLen(k1[:], 0, nil), want: []Frame{{Key: k1, Data: []byte{}}}},
		{name: "duplicate keys pass through", wire: EncodeFrames([]Frame{{Key: k1, Data: []byte("a")}, {Key: k1, Data: []byte("b")}}),
			want: []Frame{{Key: k1, Data: []byte("a")}, {Key: k1, Data: []byte("b")}}},
		{name: "cut inside a key", wire: good[:10], malformed: true},
		{name: "cut before the tag", wire: good[:32], malformed: true},
		{name: "cut inside the length", wire: good[:35], malformed: true},
		{name: "cut inside the data", wire: good[:38], malformed: true},
		{name: "cut inside the second frame", wire: good[:len(good)-1], want: []Frame{{Key: k1, Data: []byte("one")}}, malformed: true},
		{name: "unknown tag", wire: append(append([]byte(nil), k1[:]...), 7), malformed: true},
		{name: "overlong length", wire: withLen(k1[:], maxWireEntry+1, []byte("x")), malformed: true},
		{name: "length past the end", wire: withLen(k1[:], 100, []byte("short")), malformed: true},
	} {
		got, err := readFrames(tc.wire)
		if tc.malformed != errors.Is(err, ErrMalformedFrames) || (!tc.malformed && err != nil) {
			t.Errorf("%s: err %v, malformed wanted %v", tc.name, err, tc.malformed)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: read %d frames, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i].Key != tc.want[i].Key || !bytes.Equal(got[i].Data, tc.want[i].Data) ||
				(got[i].Data == nil) != (tc.want[i].Data == nil) {
				t.Errorf("%s: frame %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFrameReaderKeepsReaderErrors: a failure of the stream under the
// frames (the daemon's body bound, a reset connection) must stay
// recognizable, not be reported as a malformed batch.
func TestFrameReaderKeepsReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	wire := EncodeFrames([]Frame{{Key: testKey(1), Data: []byte("payload")}})
	_, err := NewFrameReader(io.MultiReader(bytes.NewReader(wire[:36]), failingReader{boom})).Next()
	if !errors.Is(err, boom) || errors.Is(err, ErrMalformedFrames) {
		t.Fatalf("err = %v, want the reader's own error", err)
	}
}

type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }
