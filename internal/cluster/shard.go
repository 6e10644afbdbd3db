package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// PeerPath is the peer protocol's one path: HTTPTransport requests it,
// a Shard serves it. POST fetches, PUT offers.
const PeerPath = "/v1/peer/verdicts"

// Shard is the serving side of the peer protocol over one node's own
// verdicts. The daemon mounts it at PeerPath and the simulator calls
// Fetch and Offer directly, so the safety boundary exists once: frame
// by frame, nothing that fails vcache.DecodeEntry under its own key is
// stored. What is served is the bytes the store holds, as they are.
type Shard struct {
	// Local is the node's raw store — never the fleet-routing Cache, or
	// a peer's fetch could recurse back into the fleet.
	Local *vcache.Cache

	gets, puts atomic.Int64
}

// Fetch answers one frame per key, in the order asked: the held entry's
// bytes, or no Data for the authoritative miss (a miss only ever means
// "compute it yourself").
func (s *Shard) Fetch(keys []fingerprint.Hash) []Frame {
	frames := make([]Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
		if e := s.Local.Get(key); e != nil {
			frames[i].Data = e.Bytes()
		}
	}
	s.gets.Add(int64(len(keys)))
	return frames
}

// Offer stores one offered frame, or refuses it — alone — when it fails
// the decode gate or the store: a confused or corrupting peer can never
// plant a wrong verdict in this shard.
func (s *Shard) Offer(f Frame) (stored bool) {
	e, err := vcache.DecodeEntry(f.Key, f.Data)
	if err != nil || s.Local.Put(f.Key, e) != nil {
		return false
	}
	s.puts.Add(1)
	return true
}

// Served counts the keys fetched (hit or miss) and the entries stored.
func (s *Shard) Served() (gets, puts int64) { return s.gets.Load(), s.puts.Load() }

// ServeHTTP is Fetch and Offer behind the frame codec. The whole batch
// is read before the first reply byte, offered entries being stored as
// their frames arrive; a POST is answered with Fetch's frames, a PUT with
// the keys refused. A body that does not parse as frames is refused whole
// (400); one over the caller's MaxBytesReader bound, 413.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var keys []fingerprint.Hash // POST: the keys asked
	var reply []Frame           // PUT: the keys refused
	for frames := NewFrameReader(r.Body); ; {
		f, err := frames.Next()
		if err == io.EOF {
			break
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("reading batch: %v", err), http.StatusBadRequest)
			return
		}
		if r.Method == http.MethodPost {
			keys = append(keys, f.Key)
		} else if !s.Offer(f) {
			reply = append(reply, Frame{Key: f.Key})
		}
	}
	if r.Method == http.MethodPost {
		reply = s.Fetch(keys)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeFrames(reply))
}
