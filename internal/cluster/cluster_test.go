package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

func testKey(i int) fingerprint.Hash {
	return fingerprint.Hash(sha256.Sum256([]byte(fmt.Sprintf("cluster-test-key-%d", i))))
}

func testMembers(n int) []Member {
	var ms []Member
	for i := 0; i < n; i++ {
		ms = append(ms, Member{ID: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://node-%d", i)})
	}
	return ms
}

func TestParsePeers(t *testing.T) {
	ms, err := ParsePeers("a=http://h1:1, b=http://h2:2/,c=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{{"a", "http://h1:1"}, {"b", "http://h2:2"}, {"c", "http://h3:3"}}
	if len(ms) != len(want) {
		t.Fatalf("got %d members, want %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("member %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=x,a"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): expected error", bad)
		}
	}
}

func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership("a", nil); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewMembership("z", testMembers(3)); err == nil {
		t.Error("self outside member list accepted")
	}
	dup := []Member{{ID: "a"}, {ID: "a"}}
	if _, err := NewMembership("a", dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

// TestOwnerProperties pins the rendezvous function's load-bearing
// properties: exactly one owner per key, agreement regardless of
// member-list order, stability of unrelated keys when a member is
// removed, and a roughly balanced shard split.
func TestOwnerProperties(t *testing.T) {
	members := testMembers(5)
	const keys = 2000

	counts := map[string]int{}
	elected := sha256.New()
	for i := 0; i < keys; i++ {
		key := testKey(i)
		owner := Owner(members, key)
		counts[owner.ID]++
		elected.Write([]byte(owner.ID))

		// Agreement: any permutation elects the same owner.
		rev := append([]Member(nil), members...)
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		if got := Owner(rev, key); got.ID != owner.ID {
			t.Fatalf("key %d: owner depends on member order: %s vs %s", i, owner.ID, got.ID)
		}

		// Minimal disruption: removing a non-owner member never moves
		// this key.
		for cut := range members {
			if members[cut].ID == owner.ID {
				continue
			}
			rest := append(append([]Member(nil), members[:cut]...), members[cut+1:]...)
			if got := Owner(rest, key); got.ID != owner.ID {
				t.Fatalf("key %d moved from %s to %s when non-owner %s left",
					i, owner.ID, got.ID, members[cut].ID)
			}
		}
	}
	for _, m := range members {
		n := counts[m.ID]
		if n < keys/len(members)/2 || n > keys*2/len(members) {
			t.Errorf("member %s owns %d of %d keys: badly unbalanced", m.ID, n, keys)
		}
	}
	// Ownership is a wire-level agreement between nodes of different
	// builds: the elected sequence is pinned to what PR 11's hash chose.
	if got := fmt.Sprintf("%x", elected.Sum(nil)); got != "20c60fd0dee3eaedf4c0a2daef4a3807688b27607122834188463f2a55702bf9" {
		t.Errorf("rendezvous owners moved: digest %s", got)
	}
}

// fakeClock moves only when the test says so.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerLifecycle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	b := newBreaker(clock)

	for i := 0; i < breakerThreshold; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker opened early", i)
		}
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("breaker still closed after threshold failures")
	}
	clock.advance(breakerCooldown / 2)
	if b.Allow() {
		t.Fatal("breaker admitted traffic mid-cooldown")
	}
	clock.advance(breakerCooldown / 2)
	if !b.Allow() {
		t.Fatal("no half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	if reopened := b.Failure(); !reopened {
		t.Fatal("failed probe did not report reopening")
	}
	if b.Allow() {
		t.Fatal("breaker closed after failed probe")
	}
	clock.advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("breaker not fully closed after successful probe")
	}
}

// scriptTransport fails every call when fail is set, and counts the
// calls it was given.
type scriptTransport struct {
	mu       sync.Mutex
	fail     bool
	attempts int
	entry    []byte
	notFound bool
}

func (s *scriptTransport) FetchMany(ctx context.Context, peer Member, keys []fingerprint.Hash) ([]Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.fail {
		return nil, errors.New("connection refused")
	}
	frames := make([]Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
		if !s.notFound {
			frames[i].Data = s.entry
		}
	}
	return frames, nil
}

func (s *scriptTransport) OfferMany(ctx context.Context, peer Member, frames []Frame) ([]fingerprint.Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.fail {
		return nil, errors.New("connection refused")
	}
	return nil, nil
}

func newTestClient(tr Transport) *Client {
	return NewClient(ClientConfig{Transport: tr, Clock: &fakeClock{now: time.Unix(0, 0)}})
}

func mustEntry(t *testing.T, key fingerprint.Hash) (*vcache.Entry, []byte) {
	t.Helper()
	e := &vcache.Entry{Verdict: vcache.VerdictRefined, Outputs: []vcache.Mapping{{Main: []string{"I0"}}}}
	data, err := vcache.EncodeEntry(key, e)
	if err != nil {
		t.Fatal(err)
	}
	return e, data
}

// TestClientMakesOneAttempt: a failed call is not retried — its keys
// degrade to the local path at once, and the failure is counted per key.
func TestClientMakesOneAttempt(t *testing.T) {
	key := testKey(1)
	e, _ := mustEntry(t, key)
	tr := &scriptTransport{fail: true}
	c := newTestClient(tr)
	peer := Member{ID: "p"}
	if got, err := c.Fetch(context.Background(), peer, key); err == nil || got != nil {
		t.Fatalf("fetch against a failing transport: entry %v, err %v", got, err)
	}
	if tr.attempts != 1 {
		t.Fatalf("failed fetch made %d transport attempts, want 1", tr.attempts)
	}
	if err := c.Offer(context.Background(), peer, key, e); err == nil {
		t.Fatal("offer against a failing transport succeeded")
	}
	if tr.attempts != 2 {
		t.Fatalf("failed offer made %d transport attempts, want 1", tr.attempts-1)
	}
	st := c.Stats()
	if st.FetchFailures != 1 || st.OfferFailures != 1 || st.RoundTrips != 2 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 fetch failure, 1 offer failure, 2 round trips, 0 retries", st)
	}
}

func TestClientBoundedRetriesAndBreaker(t *testing.T) {
	key := testKey(2)
	tr := &scriptTransport{fail: true}
	c := newTestClient(tr)
	peer := Member{ID: "p"}
	for call := 0; call < breakerThreshold; call++ {
		if _, err := c.Fetch(context.Background(), peer, key); err == nil {
			t.Fatal("fetch succeeded against always-failing transport")
		}
	}
	if tr.attempts != breakerThreshold {
		t.Fatalf("%d calls made %d attempts, want one each", breakerThreshold, tr.attempts)
	}
	// Threshold reached: breaker open, further calls are skipped without
	// touching the transport.
	if !c.peerBreaker(peer).Open() {
		t.Fatal("breaker not open after consecutive failures")
	}
	if _, err := c.Fetch(context.Background(), peer, key); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("expected breaker skip, got %v", err)
	}
	if tr.attempts != breakerThreshold {
		t.Fatalf("breaker-skipped call still reached the transport (%d attempts)", tr.attempts)
	}
	if st := c.Stats(); st.BreakerSkips != 1 || st.FetchFailures != breakerThreshold+1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 breaker skip, %d fetch failures", st, breakerThreshold+1)
	}
}

func TestClientNotFoundIsNotRetriedOrCounted(t *testing.T) {
	tr := &scriptTransport{notFound: true}
	c := newTestClient(tr)
	if _, err := c.Fetch(context.Background(), Member{ID: "p"}, testKey(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if tr.attempts != 1 {
		t.Fatalf("authoritative miss was retried: %d attempts", tr.attempts)
	}
	if c.peerBreaker(Member{ID: "p"}).Open() {
		t.Fatal("miss counted against the breaker")
	}
	if st := c.Stats(); st.FetchMisses != 1 || st.FetchFailures != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 0 failures", st)
	}
}

func TestClientRejectsCorruptReply(t *testing.T) {
	key := testKey(4)
	_, data := mustEntry(t, key)
	data[len(data)-1] ^= 1 // flip a payload bit: checksum must catch it
	tr := &scriptTransport{entry: data}
	c := newTestClient(tr)
	if _, err := c.Fetch(context.Background(), Member{ID: "p"}, key); err == nil {
		t.Fatal("corrupt reply accepted")
	}
	if st := c.Stats(); st.FetchCorrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt fetch", st)
	}
}

// routerFixture builds a 3-node membership with an in-memory transport
// backed by per-peer vcaches, from node n0's point of view.
type routerFixture struct {
	cache  *Cache
	stores map[string]*vcache.Cache // peer ID → that peer's local store
	down   map[string]bool
	calls  []string      // "fetch n1 3": verb, peer, frames — one per round trip
	gate   chan struct{} // non-nil: offers wait in flight until it is closed
	held   chan struct{} // receives once per offer that reaches the gate
	mu     sync.Mutex
}

func (f *routerFixture) FetchMany(ctx context.Context, peer Member, keys []fingerprint.Hash) ([]Frame, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("fetch %s %d", peer.ID, len(keys)))
	if f.down[peer.ID] {
		return nil, errors.New("connection refused")
	}
	frames := make([]Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
		if e := f.stores[peer.ID].Get(key); e != nil {
			data, err := vcache.EncodeEntry(key, e)
			if err != nil {
				return nil, err
			}
			frames[i].Data = data
		}
	}
	return frames, nil
}

func (f *routerFixture) OfferMany(ctx context.Context, peer Member, frames []Frame) ([]fingerprint.Hash, error) {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		f.held <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("offer %s %d", peer.ID, len(frames)))
	if f.down[peer.ID] {
		return nil, errors.New("connection refused")
	}
	var refused []fingerprint.Hash
	for _, fr := range frames {
		e, err := vcache.DecodeEntry(fr.Key, fr.Data)
		if err != nil || f.stores[peer.ID].Put(fr.Key, e) != nil {
			refused = append(refused, fr.Key)
		}
	}
	return refused, nil
}

// flush waits for the fixture cache's forwarder to go idle.
func (f *routerFixture) flush(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.cache.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func newRouterFixture(t *testing.T) *routerFixture {
	t.Helper()
	members := testMembers(3)
	f := &routerFixture{stores: map[string]*vcache.Cache{}, down: map[string]bool{}, held: make(chan struct{}, 64)}
	for _, m := range members {
		vc, err := vcache.Open(vcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		f.stores[m.ID] = vc
	}
	ms, err := NewMembership("n0", members)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(CacheConfig{
		Membership: ms,
		Local:      f.stores["n0"],
		Client:     NewClient(ClientConfig{Transport: f, Clock: &fakeClock{now: time.Unix(0, 0)}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cache = cache
	t.Cleanup(cache.Close)
	return f
}

// keyOwnedBy scans for a key owned by the wanted member.
func keyOwnedBy(t *testing.T, ms *Membership, id string) fingerprint.Hash {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if key := testKey(i); ms.Owner(key).ID == id {
			return key
		}
	}
	t.Fatalf("no key owned by %s in 10000 tries", id)
	return fingerprint.Hash{}
}

func TestCacheRoutesPutToOwnerAndGetFromOwner(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	e, _ := mustEntry(t, key)

	// Put on n0: lands locally AND at owner n1.
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	f.flush(t)
	if f.stores["n1"].Get(key) == nil {
		t.Fatal("verdict not forwarded to owner n1")
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("verdict not kept locally")
	}
	if st := f.cache.ClusterStats(); st.Forwards != 1 {
		t.Fatalf("stats = %+v, want 1 forward", st)
	}

	// A different node's verdict appears only at the owner; n0's Get
	// must fetch it and warm the local store.
	key2 := keyOwnedBy(t, f.cache.Membership(), "n2")
	e2, _ := mustEntry(t, key2)
	if err := f.stores["n2"].Put(key2, e2); err != nil {
		t.Fatal(err)
	}
	if got := f.cache.Get(key2); got == nil {
		t.Fatal("Get did not fetch from owner")
	}
	if f.stores["n0"].Get(key2) == nil {
		t.Fatal("fetched entry not warmed into the local store")
	}
	st := f.cache.ClusterStats()
	if st.PeerHits != 1 || st.Warmed != 1 {
		t.Fatalf("stats = %+v, want 1 peer hit + 1 warmed", st)
	}
	// Second Get is a pure local hit.
	if f.cache.Get(key2) == nil {
		t.Fatal("warmed entry missing")
	}
	if st := f.cache.ClusterStats(); st.LocalHits != 1 {
		t.Fatalf("stats = %+v, want 1 local hit", st)
	}
}

func TestCacheDegradesWhenOwnerDown(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	f.mu.Lock()
	f.down["n1"] = true
	f.mu.Unlock()

	// Get degrades to a miss (the checker then computes locally).
	if got := f.cache.Get(key); got != nil {
		t.Fatal("Get returned an entry from a down owner")
	}
	if st := f.cache.ClusterStats(); st.Degraded != 1 {
		t.Fatalf("stats = %+v, want 1 degraded get", st)
	}

	// Put still lands locally; the forward failure is counted, not
	// fatal.
	e, _ := mustEntry(t, key)
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("verdict lost when owner down")
	}
	f.flush(t)
	if st := f.cache.ClusterStats(); st.ForwardFailures != 1 {
		t.Fatalf("stats = %+v, want 1 forward failure", st)
	}

	// Owner rejoins: the next Put re-warms it (lazy warm-up, no
	// transfer protocol).
	f.mu.Lock()
	f.down["n1"] = false
	f.mu.Unlock()
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	f.flush(t)
	if f.stores["n1"].Get(key) == nil {
		t.Fatal("rejoined owner not re-warmed by forward")
	}
}

func TestCacheClosedServesLocally(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	e, _ := mustEntry(t, key)
	if err := f.stores["n1"].Put(key, e); err != nil {
		t.Fatal(err)
	}
	f.cache.Close()
	if got := f.cache.Get(key); got != nil {
		t.Fatal("closed cache still fetched from peer")
	}
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("closed cache dropped local put")
	}
}

// keysOwnedBy returns n distinct keys owned by the wanted member.
func keysOwnedBy(t *testing.T, ms *Membership, id string, n int) []fingerprint.Hash {
	t.Helper()
	var keys []fingerprint.Hash
	for i := 0; len(keys) < n; i++ {
		if i == 100000 {
			t.Fatalf("only %d of %d keys owned by %s in 100000 tries", len(keys), n, id)
		}
		if key := testKey(i); ms.Owner(key).ID == id {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestClientBatchFailureIsPerFrame: every frame of a reply meets
// DecodeEntry under its own key, so damage costs exactly the keys it
// hit — and the same on the offer side for the keys a peer refuses.
func TestClientBatchFailureIsPerFrame(t *testing.T) {
	keys := []fingerprint.Hash{testKey(1), testKey(2), testKey(3), testKey(4), testKey(5)}
	reply := make([]Frame, len(keys))
	for i, key := range keys {
		_, reply[i].Data = mustEntry(t, key)
		reply[i].Key = key
	}
	reply[1].Data = append([]byte(nil), reply[1].Data...)
	reply[1].Data[len(reply[1].Data)-1] ^= 1 // bit flip
	reply[2].Data = reply[0].Data            // a valid entry, of another key
	reply[3].Data = nil                      // authoritative miss
	reply[4].Data = []byte{}                 // zero-length entry
	tr := &frameTransport{reply: reply, refuse: []fingerprint.Hash{keys[1]}}
	c := newTestClient(tr)

	got := c.FetchMany(context.Background(), Member{ID: "p"}, keys)
	if got[0].Err != nil || got[0].Entry == nil {
		t.Errorf("intact frame: %+v", got[0])
	}
	for _, i := range []int{1, 2, 4} {
		if got[i].Entry != nil || got[i].Err == nil || errors.Is(got[i].Err, ErrNotFound) {
			t.Errorf("frame %d failing DecodeEntry was not a per-key failure: %+v", i, got[i])
		}
	}
	if !errors.Is(got[3].Err, ErrNotFound) {
		t.Errorf("bare frame: %+v, want ErrNotFound", got[3])
	}
	st := c.Stats()
	if st.FetchHits != 1 || st.FetchMisses != 1 || st.FetchCorrupt != 3 || st.FetchFailures != 3 || st.RoundTrips != 1 || st.Retries != 0 {
		t.Errorf("fetch stats = %+v", st)
	}
	if c.peerBreaker(Member{ID: "p"}).Open() {
		t.Error("damaged frames counted against the breaker")
	}

	entries := make([]*vcache.Entry, len(keys))
	for i, key := range keys {
		entries[i], _ = mustEntry(t, key)
	}
	errs := c.OfferMany(context.Background(), Member{ID: "p"}, keys, entries)
	for i, err := range errs {
		if (err != nil) != (i == 1) {
			t.Errorf("offer %d: err %v", i, err)
		}
	}
	if st := c.Stats(); st.Offers != 4 || st.OfferFailures != 1 || st.RoundTrips != 2 {
		t.Errorf("offer stats = %+v", st)
	}
}

// frameTransport answers every fetch with a fixed reply and refuses a
// fixed set of offered keys.
type frameTransport struct {
	reply  []Frame
	refuse []fingerprint.Hash
}

func (f *frameTransport) FetchMany(context.Context, Member, []fingerprint.Hash) ([]Frame, error) {
	return f.reply, nil
}

func (f *frameTransport) OfferMany(context.Context, Member, []Frame) ([]fingerprint.Hash, error) {
	return f.refuse, nil
}

// TestClientCutsBatches: a batch never grows past maxBatchKeys keys or
// maxBatchBytes of entries, so it cannot run into the daemon's body
// bound however large a check is; an entry above the cut travels alone.
func TestClientCutsBatches(t *testing.T) {
	tr := &sizeTransport{}
	c := newTestClient(tr)
	keys := make([]fingerprint.Hash, 2*maxBatchKeys+1)
	for i := range keys {
		keys[i] = testKey(i)
	}
	c.FetchMany(context.Background(), Member{ID: "p"}, keys)
	if len(tr.fetched) != 3 || tr.fetched[0] != maxBatchKeys || tr.fetched[2] != 1 {
		t.Errorf("fetch batches of %v keys", tr.fetched)
	}

	big := &vcache.Entry{Verdict: vcache.VerdictRefined, Outputs: []vcache.Mapping{{Main: []string{strings.Repeat("x", maxBatchBytes/2)}}}}
	huge := &vcache.Entry{Verdict: vcache.VerdictRefined, Outputs: []vcache.Mapping{{Main: []string{strings.Repeat("x", 2*maxBatchBytes)}}}}
	errs := c.OfferMany(context.Background(), Member{ID: "p"}, keys[:4], []*vcache.Entry{big, big, huge, big})
	for i, err := range errs {
		if err != nil {
			t.Errorf("offer %d: %v", i, err)
		}
	}
	if len(tr.offered) != 4 {
		t.Fatalf("offer batches of %v bytes, want 4 batches", tr.offered)
	}
	for i, n := range tr.offered {
		if n > maxBatchBytes && i != 2 {
			t.Errorf("batch %d carries %d bytes, cut is %d", i, n, maxBatchBytes)
		}
	}
	if st := c.Stats(); st.RoundTrips != 7 || st.Offers != 4 {
		t.Errorf("stats = %+v", st)
	}
}

type sizeTransport struct {
	fetched []int // keys per call
	offered []int // entry bytes per call
}

func (s *sizeTransport) FetchMany(_ context.Context, _ Member, keys []fingerprint.Hash) ([]Frame, error) {
	s.fetched = append(s.fetched, len(keys))
	frames := make([]Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
	}
	return frames, nil
}

func (s *sizeTransport) OfferMany(_ context.Context, _ Member, frames []Frame) ([]fingerprint.Hash, error) {
	n := 0
	for _, f := range frames {
		n += len(f.Data)
	}
	s.offered = append(s.offered, n)
	return nil, nil
}

// TestGetManyAsksEachOwnerOnce: a run's keys cost one round trip per
// owner, however many keys each owner holds; local hits and self-owned
// keys cost none; the counters still count keys.
func TestGetManyAsksEachOwnerOnce(t *testing.T) {
	f := newRouterFixture(t)
	ms := f.cache.Membership()
	mine := keysOwnedBy(t, ms, "n0", 3)
	n1 := keysOwnedBy(t, ms, "n1", 5)
	n2 := keysOwnedBy(t, ms, "n2", 4)
	// n1 holds three of its five keys, n2 all of its four; one of n0's
	// own keys is already local.
	for _, key := range append(append([]fingerprint.Hash{}, n1[:3]...), n2...) {
		e, _ := mustEntry(t, key)
		if err := f.stores[ms.Owner(key).ID].Put(key, e); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := mustEntry(t, mine[0])
	if err := f.stores["n0"].Put(mine[0], e); err != nil {
		t.Fatal(err)
	}

	var keys []fingerprint.Hash
	for i := 0; i < 5; i++ { // interleave the owners
		for _, group := range [][]fingerprint.Hash{mine, n1, n2} {
			if i < len(group) {
				keys = append(keys, group[i])
			}
		}
	}
	got := f.cache.GetMany(keys)
	for i, key := range keys {
		want := f.stores[ms.Owner(key).ID].Get(key) != nil
		if (got[i] != nil) != want {
			t.Errorf("key %d (owner %s): entry %v, want present=%v", i, ms.Owner(key).ID, got[i], want)
		}
	}
	f.mu.Lock()
	calls := append([]string(nil), f.calls...)
	f.mu.Unlock()
	sort.Strings(calls) // the two owners are asked concurrently
	if len(calls) != 2 || calls[0] != "fetch n1 5" || calls[1] != "fetch n2 4" {
		t.Errorf("round trips %v, want one fetch of 5 keys to n1 and one of 4 to n2", calls)
	}
	st := f.cache.ClusterStats()
	if st.LocalHits != 1 || st.PeerHits != 7 || st.PeerMisses != 2 || st.Warmed != 7 || st.Degraded != 0 {
		t.Errorf("cluster stats = %+v", st)
	}
	if cs := f.cache.ClientStats(); cs.RoundTrips != 2 || cs.FetchHits != 7 || cs.FetchMisses != 2 {
		t.Errorf("client stats = %+v", cs)
	}
	// Everything fetched is warm now: a second pass is all local.
	f.cache.GetMany(keys)
	if cs := f.cache.ClientStats(); cs.RoundTrips != 3 || cs.FetchMisses != 4 {
		t.Errorf("second pass re-asked for warmed keys: %+v", cs)
	}
}

// TestForwarderGroupCommits: Put returns without waiting for its
// forward, and whatever is Put while a send is in flight goes out as
// one batch per owner when that send returns — no timer involved.
func TestForwarderGroupCommits(t *testing.T) {
	f := newRouterFixture(t)
	ms := f.cache.Membership()
	n1 := keysOwnedBy(t, ms, "n1", 6)
	n2 := keysOwnedBy(t, ms, "n2", 3)
	f.gate = make(chan struct{})

	put := func(key fingerprint.Hash) {
		t.Helper()
		e, _ := mustEntry(t, key)
		if err := f.cache.Put(key, e); err != nil {
			t.Fatal(err)
		}
	}
	put(n1[0])
	<-f.held // the lone forward is on the wire, wedged
	for _, key := range append(append([]fingerprint.Hash{}, n1[1:]...), n2...) {
		put(key) // none of these may block behind the wedged send
	}
	if st := f.cache.ClusterStats(); st.Forwards != 0 || st.ForwardFailures != 0 {
		t.Fatalf("forwards resolved while the owner was wedged: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := f.cache.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush returned %v with forwards outstanding", err)
	}
	cancel()

	close(f.gate)
	f.flush(t)
	f.mu.Lock()
	calls := append([]string(nil), f.calls...)
	f.mu.Unlock()
	want := []string{"offer n1 1", "offer n1 5", "offer n2 3"}
	if len(calls) != len(want) {
		t.Fatalf("round trips %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("round trips %v, want %v", calls, want)
		}
	}
	for _, key := range append(append([]fingerprint.Hash{}, n1...), n2...) {
		if f.stores[ms.Owner(key).ID].Get(key) == nil {
			t.Errorf("a forward never reached its owner")
		}
	}
	if st := f.cache.ClusterStats(); st.Forwards != 9 || st.ForwardFailures != 0 {
		t.Errorf("cluster stats = %+v, want 9 forwards", st)
	}
	if cs := f.cache.ClientStats(); cs.Offers != 9 || cs.RoundTrips != 3 {
		t.Errorf("client stats = %+v, want 9 offers in 3 round trips", cs)
	}
}

// TestForwardQueueIsBounded: an owner that stays wedged costs a bounded
// queue; past it a Put still succeeds and its forward is counted as
// failed at once.
func TestForwardQueueIsBounded(t *testing.T) {
	f := newRouterFixture(t)
	keys := keysOwnedBy(t, f.cache.Membership(), "n1", 1)
	e, _ := mustEntry(t, keys[0])
	f.gate = make(chan struct{})
	if err := f.cache.Put(keys[0], e); err != nil {
		t.Fatal(err)
	}
	<-f.held
	const over = 7
	for i := 0; i < maxQueuedForwards+over; i++ {
		if err := f.cache.Put(keys[0], e); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.cache.ClusterStats(); st.ForwardFailures != over {
		t.Fatalf("%d forward failures, want the %d past the bound", st.ForwardFailures, over)
	}
	close(f.gate)
	f.flush(t)
	if st := f.cache.ClusterStats(); st.Forwards != maxQueuedForwards+1 || st.ForwardFailures != over {
		t.Fatalf("after the owner recovered: %+v", st)
	}
}

// TestCloseCountsUndeliveredForwards: Close aborts the send in flight,
// counts it and everything still queued as forward failures, and
// returns only once the forwarder goroutine has exited; afterwards Put
// is purely local and Flush has nothing to wait for.
func TestCloseCountsUndeliveredForwards(t *testing.T) {
	f := newRouterFixture(t)
	keys := keysOwnedBy(t, f.cache.Membership(), "n1", 4)
	f.gate = make(chan struct{})
	for i, key := range keys {
		e, _ := mustEntry(t, key)
		if err := f.cache.Put(key, e); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-f.held
		}
	}
	f.cache.Close() // waits for the forwarder
	if st := f.cache.ClusterStats(); st.ForwardFailures != 4 || st.Forwards != 0 {
		t.Fatalf("stats after Close = %+v, want 4 forward failures", st)
	}
	e, _ := mustEntry(t, keys[0])
	if err := f.cache.Put(keys[0], e); err != nil {
		t.Fatal(err)
	}
	if err := f.cache.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	if st := f.cache.ClusterStats(); st.ForwardFailures != 4 {
		t.Fatalf("a Put after Close reached the forwarder: %+v", st)
	}
}

// TestCacheConcurrentUse drives Put, GetMany, Flush and finally Close
// from many goroutines at once (run under -race): every forward is
// accounted for exactly once, as delivered or as failed.
func TestCacheConcurrentUse(t *testing.T) {
	f := newRouterFixture(t)
	ms := f.cache.Membership()
	keys := append(keysOwnedBy(t, ms, "n1", 40), keysOwnedBy(t, ms, "n2", 40)...)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				e, _ := mustEntry(t, keys[i])
				if err := f.cache.Put(keys[i], e); err != nil {
					t.Error(err)
				}
				f.cache.GetMany(keys[i/2 : i+1])
				if i%16 == w {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if err := f.cache.Flush(ctx); err != nil {
						t.Error(err)
					}
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	f.cache.Close()
	if st := f.cache.ClusterStats(); st.Forwards+st.ForwardFailures != int64(len(keys)) {
		t.Fatalf("%d forwards + %d failures for %d Puts", st.Forwards, st.ForwardFailures, len(keys))
	}
}
