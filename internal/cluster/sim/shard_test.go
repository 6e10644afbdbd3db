package sim

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/server"
	"entangle/internal/vcache"
)

// TestDaemonAndSimulatedNodeAreOneShardSide feeds one batch — a valid
// frame, that frame's bytes damaged in every faultinject.CacheFaults()
// mode, and intact bytes under the wrong key — to a daemon over real
// HTTP and to a simulated node over the in-memory transport, then
// fetches every key back from both. Both wires end in cluster.Shard, so
// what is stored, what is refused and what is served must agree frame
// for frame: the simulator's chaos results say something about the
// daemon only while that holds.
func TestDaemonAndSimulatedNodeAreOneShardSide(t *testing.T) {
	valid, err := vcache.EncodeEntry(key(0), entry(key(0), 0))
	if err != nil {
		t.Fatal(err)
	}
	frames := []cluster.Frame{{Key: key(0), Data: valid}, {Key: key(1), Data: valid}}
	for i, mode := range faultinject.CacheFaults() {
		k := key(2 + i)
		data, err := vcache.EncodeEntry(k, entry(k, 2+i))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, cluster.Frame{Key: k, Data: faultinject.Damage(data, mode)})
	}
	last := key(len(frames))
	data, err := vcache.EncodeEntry(last, entry(last, len(frames)))
	if err != nil {
		t.Fatal(err)
	}
	frames = append(frames, cluster.Frame{Key: last, Data: data}) // a good frame behind the bad ones
	keys := make([]fingerprint.Hash, len(frames))
	for i, f := range frames {
		keys[i] = f.Key
	}
	ctx := context.Background()

	// The daemon: the shipped HTTP transport against the shipped handler.
	shard, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Options: core.Options{Cache: shard}, Local: shard}))
	defer ts.Close()
	daemon, peer := &cluster.HTTPTransport{}, cluster.Member{ID: "d", URL: ts.URL}
	daemonRefused, err := daemon.OfferMany(ctx, peer, frames)
	if err != nil {
		t.Fatal(err)
	}
	daemonServed, err := daemon.FetchMany(ctx, peer, keys)
	if err != nil {
		t.Fatal(err)
	}

	// The simulated node: n0's transport to n1, fault-free, inside a step
	// whose offers are already released.
	c := newFleet(t, 2, faultinject.NetConfig{})
	close(c.release)
	node := &transport{c: c, src: "n0"}
	simRefused, err := node.OfferMany(ctx, c.members[1], frames)
	if err != nil {
		t.Fatal(err)
	}
	simServed, err := node.FetchMany(ctx, c.members[1], keys)
	if err != nil {
		t.Fatal(err)
	}

	wantRefused := keys[1 : len(keys)-1]
	for name, refused := range map[string][]fingerprint.Hash{"daemon": daemonRefused, "simulated node": simRefused} {
		if len(refused) != len(wantRefused) {
			t.Fatalf("%s refused %d frames, want the %d bad ones", name, len(refused), len(wantRefused))
		}
		for i, k := range refused {
			if k != wantRefused[i] {
				t.Fatalf("%s: refusal %d is %s, want %s", name, i, k.Hex(), wantRefused[i].Hex())
			}
		}
	}
	for i, k := range keys {
		good := i == 0 || i == len(keys)-1
		if stored := shard.Get(k) != nil; stored != good {
			t.Fatalf("daemon: frame %d stored = %v", i, stored)
		}
		if stored := c.Node(1).Local().Get(k) != nil; stored != good {
			t.Fatalf("simulated node: frame %d stored = %v", i, stored)
		}
		if d, s := daemonServed[i], simServed[i]; d.Key != s.Key || !bytes.Equal(d.Data, s.Data) || (d.Data == nil) != (s.Data == nil) {
			t.Fatalf("frame %d served differently: daemon %d bytes, simulated node %d bytes", i, len(d.Data), len(s.Data))
		}
		if served := daemonServed[i].Data != nil; served != good {
			t.Fatalf("frame %d served = %v", i, served)
		}
		// One encoding: an accepted offer is held, and served back, as
		// the very bytes offered — on both wires.
		if good {
			for name, held := range map[string][]byte{
				"daemon holds":         shard.Get(k).Bytes(),
				"simulated node holds": c.Node(1).Local().Get(k).Bytes(),
				"daemon serves":        daemonServed[i].Data,
			} {
				if !bytes.Equal(held, frames[i].Data) {
					t.Fatalf("frame %d: what the %s is not the bytes offered", i, name)
				}
			}
		}
	}
}
