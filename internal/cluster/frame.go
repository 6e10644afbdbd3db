package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"entangle/internal/fingerprint"
)

// Frame is one key's slot in a peer batch: the key and, when the key
// has an entry to carry, that entry's EVCACHE2 bytes exactly as vcache
// holds them and writes them to disk. A frame without bytes (Data ==
// nil) is a key on its own: a key asked for in a fetch request, an
// authoritative miss in a fetch reply, a refused key in an offer reply.
//
// The frame layer moves bytes and nothing else. Whether a frame's
// bytes are a verdict is decided per frame by vcache.DecodeEntry under
// the frame's own key, on whichever side is about to store or return
// them, so a damaged frame costs its own key only.
type Frame struct {
	Key  fingerprint.Hash
	Data []byte
}

// On the wire a batch is its frames back to back, nothing before,
// between or after them:
//
//	key[32] 0                       a key on its own
//	key[32] 1 len[4, big endian] data[len]
//
// The end of the body is the end of the batch.
const (
	frameBare byte = 0
	frameData byte = 1
)

// ErrMalformedFrames marks a frame stream that does not parse: an
// unknown tag, a length beyond maxWireEntry, a frame cut short. Unlike
// a frame whose bytes fail DecodeEntry, this says nothing about any one
// key — where the next frame starts is unknown — so the whole call
// counts as a transport failure.
var ErrMalformedFrames = errors.New("cluster: malformed frame stream")

// Batches are cut at these sizes. maxBatchBytes of offered entries
// stays far below the daemon's request-body bound (an entry larger
// than the cut travels alone, as it always has), and a reply is read
// frame by frame under the per-entry bound, so batching can run into
// neither limit.
const (
	maxBatchKeys  = 512
	maxBatchBytes = 1 << 20
)

// EncodeFrames renders a batch: each frame's wire form, back to back.
func EncodeFrames(frames []Frame) []byte {
	n := 0
	for _, f := range frames {
		n += len(f.Key) + 5 + len(f.Data)
	}
	buf := make([]byte, 0, n)
	for _, f := range frames {
		buf = append(buf, f.Key[:]...)
		if f.Data == nil {
			buf = append(buf, frameBare)
			continue
		}
		buf = append(buf, frameData)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Data)))
		buf = append(buf, f.Data...)
	}
	return buf
}

// FrameReader reads a batch one frame at a time, so neither side ever
// holds more than one entry's bytes beyond what it chose to keep.
type FrameReader struct {
	r *bufio.Reader
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next returns the next frame, or io.EOF at a clean end of the batch.
// A stream that does not parse is ErrMalformedFrames; an error of the
// underlying reader (a body over its byte bound, a dropped connection)
// is returned wrapped, so errors.As still finds it.
func (fr *FrameReader) Next() (Frame, error) {
	var f Frame
	if _, err := io.ReadFull(fr.r, f.Key[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, cutShort(err)
	}
	tag, err := fr.r.ReadByte()
	if err != nil {
		return Frame{}, cutShort(err)
	}
	switch tag {
	case frameBare:
		return f, nil
	case frameData:
	default:
		return Frame{}, fmt.Errorf("%w: tag %d", ErrMalformedFrames, tag)
	}
	var word [4]byte
	if _, err := io.ReadFull(fr.r, word[:]); err != nil {
		return Frame{}, cutShort(err)
	}
	n := binary.BigEndian.Uint32(word[:])
	if n > maxWireEntry {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes", ErrMalformedFrames, n)
	}
	// Grow with the bytes that arrive, not with the length a peer
	// claims.
	var data bytes.Buffer
	if _, err := io.CopyN(&data, fr.r, int64(n)); err != nil {
		return Frame{}, cutShort(err)
	}
	f.Data = data.Bytes()
	if f.Data == nil {
		f.Data = []byte{} // a zero-length entry is still an entry (one DecodeEntry refuses)
	}
	return f, nil
}

// cutShort classifies a read error inside a frame: the stream ending
// there is malformed; anything else is the reader's own failure.
func cutShort(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: cut short", ErrMalformedFrames)
	}
	return fmt.Errorf("cluster: reading frames: %w", err)
}
